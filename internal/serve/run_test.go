package serve

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/par"
)

// A flood request whose horizon cannot finish inside its deadline
// answers 504, and the engine hands its workers back: the request
// context reaches the round loop.
func TestRunFloodDeadlineCancels(t *testing.T) {
	s := New(Config{})
	rr := do(t, s, "/v1/run?algo=flood&n=4096&rounds=100000000&deadline_ms=5")
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d (%s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "deadline exceeded") {
		t.Fatalf("504 body: %s", rr.Body.String())
	}
	poll(t, "worker budget to drain", func() bool {
		return par.InUse() == 0 && s.adm.busy() == 0
	})
}

// rounds= is flood's horizon: required there, rejected elsewhere, and
// never accepted by /v1/measure.
func TestRunRounds400s(t *testing.T) {
	s := New(Config{})
	for _, tc := range []struct{ target, want string }{
		{"/v1/run?algo=flood&n=12", "rounds"},
		{"/v1/run?algo=flood&n=12&rounds=0", "rounds"},
		{"/v1/run?algo=flood&n=12&rounds=x", "rounds"},
		{"/v1/run?algo=matching&n=12&rounds=5", "rounds only applies to the flood"},
		{"/v1/run?algo=flood&n=12&rounds=5&shards=2", "shards only applies"},
		{"/v1/run?algo=flood&n=12&rounds=5&rmax=2", "only applies to the gather"},
		{"/v1/measure?host=cycle:12&rmax=2&rounds=3", "unknown parameter"},
	} {
		rr := do(t, s, tc.target)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d (%s)", tc.target, rr.Code, rr.Body.String())
			continue
		}
		if !strings.Contains(rr.Body.String(), tc.want) {
			t.Errorf("%s: body missing %q:\n%s", tc.target, tc.want, rr.Body.String())
		}
	}
}

// The n= and host= spellings of one flood tuple share a cache entry;
// a different horizon does not.
func TestRunFloodKey(t *testing.T) {
	s := New(Config{})
	if rr := do(t, s, "/v1/run?algo=flood&n=12&rounds=5"); rr.Code != 200 || rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first flood: %d X-Cache %q", rr.Code, rr.Header().Get("X-Cache"))
	}
	if rr := do(t, s, "/v1/run?algo=flood&host=cycle:12&rounds=5"); rr.Header().Get("X-Cache") != "hit" {
		t.Fatalf("host= spelling should hit the n= entry: X-Cache %q", rr.Header().Get("X-Cache"))
	}
	if rr := do(t, s, "/v1/run?algo=flood&n=12&rounds=6"); rr.Header().Get("X-Cache") != "miss" {
		t.Fatal("a different horizon must not share a cache entry")
	}
}

// nullWriter is a reusable ResponseWriter, so a hit's own allocations
// are all AllocsPerRun counts.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// A /v1/run cache hit — query parse, registry validation, key build,
// probe and write — allocates nothing, for every workload.
func TestRunHitAllocatesNothing(t *testing.T) {
	s := New(Config{})
	for _, query := range []string{
		"algo=cole-vishkin&n=64&seed=3&faults=lossy:p=0.05",
		"algo=matching&host=torus:8x8&shards=2",
		"algo=gather&n=64&rmax=2",
		"algo=flood&n=64&rounds=8",
	} {
		if rr := do(t, s, "/v1/run?"+query); rr.Code != 200 {
			t.Fatalf("%s: %d %s", query, rr.Code, rr.Body.String())
		}
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/run", RawQuery: query}}
		w := &nullWriter{h: make(http.Header, 4)}
		if allocs := testing.AllocsPerRun(50, func() { s.ServeHTTP(w, req) }); allocs != 0 {
			t.Errorf("%s: %v allocs per hit, want 0", query, allocs)
		}
		if w.code != 200 || w.h["X-Cache"][0] != "hit" {
			t.Errorf("%s: code %d X-Cache %v", query, w.code, w.h["X-Cache"])
		}
	}
}
