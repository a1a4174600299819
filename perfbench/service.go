package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/job"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/serve"
	"repro/internal/view"
)

// The service workload drives an in-process localapproxd — serve.New
// with a job manager attached, on an ephemeral loopback listener —
// over at most two client connections, in two kinds of phase:
//
//   - requests: an open loop, Poisson arrivals at svcRate, timed from
//     each request's scheduled send time. About 80% repeat a hot set
//     warmed during set-up (cache hits) over one connection; the rest
//     are fresh tuples (cache misses that compute on small hosts) over
//     the other.
//   - jobs: a closed loop with one outstanding durable flood job,
//     submitted over POST /v1/jobs and polled until done.
//
// The requests are cut into svcJobs slices, and one job runs after
// each slice, so that requests and jobs both spread over the whole run
// and meet the same host conditions.
//
// The service never runs as a separate process; the owner closes the
// listener, drains the job manager and removes its directory on every
// exit path.

const (
	// svcRate is the open-loop arrival rate. A saturating schedule of
	// this mix completed about 380 requests/s over the two connections
	// on a 2-core Xeon, but even at 100/s a phase of slower cores
	// (common on shared hosts) drove the fresh connection into a
	// growing backlog and moved p99 several-fold between runs; at 50/s
	// misses occupy the fresh connection about a quarter of the time.
	svcRate = 50.0
	// svcWindow splits the request phase; the reported p50 and p99 are
	// medians over windows, so a burst of host noise moves one window
	// and not the result.
	svcWindow = 2 * time.Second
	// Every svcFreshEvery-th request is a fresh tuple. An exact share,
	// not a coin per request: fresh requests carry most of the phase's
	// CPU time, and a binomial count of them moved cpu_ms_per_op by
	// ±10% from seed to seed.
	svcFreshEvery = 5
	// svcRequestShare of the measuring time, at svcRate, sets the number
	// of requests; the rest goes roughly to the jobs.
	svcRequestShare = 0.5
	svcConns        = 2
	// svcJobs is the number of jobs, one after each request slice. A
	// fixed count, not a time: the jobs' CPU time is part of
	// cpu_ms_per_op, whose mix of requests and jobs must not move with
	// how fast the host ran.
	svcJobs = 12

	floodN      = 65536
	floodHost   = "cycle:65536" // floodN nodes
	floodRounds = 512
	floodEvery  = 64
	pollEvery   = 10 * time.Millisecond
)

// service is one started server with its client.
type service struct {
	base   string
	srv    *serve.Server
	client *http.Client
	dir    string
	close  func()
	hot    []string          // hot-set request paths
	first  map[string][]byte // body of each hot path's first (miss) response
}

// startService starts the server and job manager, registers their
// release with the owner, and warms the hot set.
func startService(e *env, hot []string) (*service, error) {
	dir, err := e.own.tempDir(buildDir, "jobs")
	if err != nil {
		return nil, err
	}
	jm, err := job.Open(job.Config{Dir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: svcConns})
	srv.AttachJobs(jm)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jm.Close()
		return nil, err
	}
	e.own.listener(ln.Addr().String())
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	tr := &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns, DisableCompression: true}
	s := &service{
		base: "http://" + ln.Addr().String(), srv: srv, dir: dir,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		hot:    hot, first: map[string][]byte{},
	}
	var once sync.Once
	s.close = func() {
		once.Do(func() {
			srv.BeginDrain()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if hs.Shutdown(ctx) != nil {
				hs.Close()
			}
			<-served
			tr.CloseIdleConnections()
			jm.Drain(ctx)
			os.RemoveAll(dir)
		})
	}
	e.own.onRelease(s.close)
	for _, p := range hot {
		body, cache, err := s.get(p)
		if err != nil {
			return nil, fmt.Errorf("warm %s: %w", p, err)
		}
		if cache != "miss" {
			return nil, fmt.Errorf("warm %s: X-Cache %q on a fresh server", p, cache)
		}
		s.first[p] = body
	}
	return s, nil
}

// get fetches path and returns the body and the X-Cache header; any
// status but 200 is an error.
func (s *service) get(path string) ([]byte, string, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// hotSet is the repeated part of the request mix.
func hotSet(seed int64) []string {
	return []string{
		"/v1/measure?host=torus:24x24&rmax=3",
		"/v1/measure?host=cycle:4096&rmax=2",
		fmt.Sprintf("/v1/measure?host=random-regular:d=3,n=2048,seed=%d&rmax=2", seed),
		"/v1/measure?host=torus:16x32&rmax=2",
		fmt.Sprintf("/v1/run?algo=cole-vishkin&n=16384&seed=%d", seed),
		fmt.Sprintf("/v1/run?algo=cole-vishkin&n=32768&seed=%d", seed+1),
		fmt.Sprintf("/v1/run?algo=matching&host=torus:128x128&seed=%d", seed),
		fmt.Sprintf("/v1/run?algo=matching&n=65536&seed=%d", seed),
		fmt.Sprintf("/v1/run?algo=cole-vishkin&n=16384&seed=%d&faults=lossy:p=0.05", seed),
		fmt.Sprintf("/v1/run?algo=matching&host=cycle:32768&seed=%d&shards=2", seed),
		"/v1/run?algo=gather&host=torus:32x32&rmax=2",
		fmt.Sprintf("/v1/run?algo=matching&host=random-regular:d=3,n=16384,seed=%d&seed=%d", seed, seed),
	}
}

// fresh is a request tuple that no earlier request used, so the
// server must compute it; direct recomputes it with the library.
type fresh struct {
	path   string
	direct func() (any, error)
	decode func([]byte) (any, error)
}

// freshTuple returns the k-th fresh tuple of a run; u makes it unique.
func freshTuple(k int, u int64) fresh {
	cvN := []int{16384, 32768, 65536}[k/7%3]
	switch k % 7 {
	case 0:
		w, h := 24+k/7%64, 24+k/7/64
		return measureTuple(fmt.Sprintf("torus:%dx%d", w, h), 2)
	case 1:
		return measureTuple(fmt.Sprintf("random-regular:d=3,n=4096,seed=%d", u), 2)
	case 2:
		return runTuple("cole-vishkin", fmt.Sprintf("dcycle:%d", cvN), fmt.Sprintf("n=%d", cvN), u, "", 0, 0)
	case 3:
		return runTuple("cole-vishkin", "dcycle:16384", "n=16384", u, "lossy:p=0.05", 0, 0)
	case 4:
		// Not on a random-regular host: its generator restarts a
		// seed-dependent number of times, and at n=16384 those restarts
		// cost more than the matching.
		return runTuple("matching", "torus:128x128", "", u, "", 0, 0)
	case 5:
		return runTuple("matching", "cycle:32768", "", u, "", 2, 0)
	default:
		return runTuple("gather", "torus:32x32", "", u, "", 0, 2)
	}
}

// measureBody mirrors the /v1/measure response fields.
type measureBody struct {
	Host  string       `json:"host"`
	N     int          `json:"n"`
	M     int          `json:"m"`
	Rmax  int          `json:"rmax"`
	Radii []radiusBody `json:"radii"`
}

type radiusBody struct {
	R        int     `json:"r"`
	Alpha    float64 `json:"alpha"`
	Types    int     `json:"types"`
	Majority int     `json:"majority"`
}

func measureTuple(desc string, rmax int) fresh {
	return fresh{
		path: fmt.Sprintf("/v1/measure?host=%s&rmax=%d", desc, rmax),
		decode: func(b []byte) (any, error) {
			var m measureBody
			err := json.Unmarshal(b, &m)
			return m, err
		},
		direct: func() (any, error) {
			rh, err := host.Parse(desc)
			if err != nil {
				return nil, err
			}
			m := measureBody{Host: rh.Desc, N: rh.G.N(), M: rh.G.M(), Rmax: rmax}
			for r, hm := range order.SweepMeasureAll(rh.G, order.Identity(rh.G.N()), rmax) {
				m.Radii = append(m.Radii, radiusBody{R: r + 1, Alpha: hm.Alpha, Types: len(hm.Counts), Majority: hm.Count})
			}
			return m, nil
		},
	}
}

// runBody mirrors the /v1/run response fields.
type runBody struct {
	Host    string     `json:"host"`
	Algo    string     `json:"algo"`
	N       int        `json:"n"`
	Seed    int64      `json:"seed"`
	Rounds  int        `json:"rounds"`
	Size    int        `json:"size"`
	Faults  *faultBody `json:"faults"`
	Sharded *shardBody `json:"sharded"`
}

type faultBody struct {
	Profile    string `json:"profile"`
	Crashed    int    `json:"crashed"`
	Dropped    int64  `json:"dropped"`
	Duplicated int64  `json:"duplicated"`
	Reordered  int64  `json:"reordered"`
	Violations int    `json:"violations"`
	Uncovered  int    `json:"uncovered"`
	Conflicts  int    `json:"conflicts"`
}

type shardBody struct {
	P              int   `json:"p"`
	CrossArcs      int64 `json:"cross_arcs"`
	ExchangedWords int64 `json:"exchanged_words"`
}

// runTuple is a /v1/run request; query is "n=<n>" for the synthesized
// host or "" to pass desc as host=.
func runTuple(algo, desc, query string, seed int64, faults string, shards, rmax int) fresh {
	path := "/v1/run?algo=" + algo
	if query != "" {
		path += "&" + query
	} else {
		path += "&host=" + desc
	}
	path += fmt.Sprintf("&seed=%d", seed)
	if faults != "" {
		path += "&faults=" + faults
	}
	if shards > 0 {
		path += fmt.Sprintf("&shards=%d", shards)
	}
	if rmax > 0 {
		path += fmt.Sprintf("&rmax=%d", rmax)
	}
	return fresh{
		path: path,
		decode: func(b []byte) (any, error) {
			var r runBody
			err := json.Unmarshal(b, &r)
			return r, err
		},
		direct: func() (any, error) { return directRun(algo, desc, seed, faults, shards, rmax) },
	}
}

// directRun computes a run tuple with direct library calls, the way
// the service documents each workload.
func directRun(algo, desc string, seed int64, faults string, shards, rmax int) (any, error) {
	out := runBody{Algo: algo, Seed: seed}
	if shards > 0 {
		src, err := host.ParseShard(desc)
		if err != nil {
			return nil, err
		}
		se, err := model.NewShardedEngine(src, shards)
		if err != nil {
			return nil, err
		}
		res, err := algorithms.RandomizedMatchingSharded(se, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		out.Host, out.N, out.Rounds, out.Size = desc, int(src.N()), 2, int(res.Matched)
		out.Sharded = &shardBody{P: shards}
		for _, st := range se.Stats() {
			out.Sharded.CrossArcs += st.ExchangeOut
			out.Sharded.ExchangedWords += st.Exchanged
		}
		return out, nil
	}
	rh, err := host.Parse(desc)
	if err != nil {
		return nil, err
	}
	h := model.HostFromGraph(rh.G)
	if rh.D != nil {
		h = &model.Host{D: rh.D, G: rh.G}
	}
	n := h.G.N()
	out.Host, out.N = rh.Desc, n
	switch algo {
	case "cole-vishkin":
		ids := rand.New(rand.NewSource(seed)).Perm(8 * n)[:n]
		if faults == "" {
			res, err := algorithms.ColeVishkinMIS(h, ids)
			if err != nil {
				return nil, err
			}
			out.Rounds, out.Size = res.Rounds, res.MIS.Size()
			break
		}
		prof, err := model.ParseProfile(faults)
		if err != nil {
			return nil, err
		}
		res, err := algorithms.ColeVishkinMISFaulty(h, ids, prof.New(h, seed))
		if err != nil {
			return nil, err
		}
		rep := res.Report
		out.Rounds, out.Size = res.Rounds, res.MIS.Size()
		out.Faults = &faultBody{Profile: prof.Desc, Crashed: rep.NumCrashed, Dropped: rep.Dropped,
			Duplicated: rep.Duplicated, Reordered: rep.Reordered, Violations: res.Violations, Uncovered: res.Uncovered}
	case "matching":
		out.Rounds, out.Size = 2, algorithms.RandomizedMatching(h, rand.New(rand.NewSource(seed))).Size()
	case "gather":
		states, rounds, err := model.RunRoundsStates(h, nil, model.GatherViews(rmax), rmax+2)
		if err != nil {
			return nil, err
		}
		types := map[*view.Tree]bool{}
		for _, st := range states {
			types[st.(*model.GatherState).Tree] = true
		}
		out.Rounds, out.Size = rounds, len(types)
	}
	return out, nil
}

// svcRequest is one scheduled request of the open loop.
type svcRequest struct {
	at     time.Duration // send time, from the start of the phase
	path   string
	fresh  *fresh // nil for hot-set requests
	traced bool
}

// svcSchedule draws one request phase: n requests with exponential
// gaps at svcRate, every svcFreshEvery-th the next fresh tuple and the
// others a uniformly chosen hot path. A fixed count, not a fixed time:
// cpu_ms_per_op averages over requests and jobs, whose costs differ a
// hundredfold, so the mix must not move with the seed. In a traced run
// every other request of each kind is traced, so traced and untraced
// requests share the host's state and the mix of hits and misses.
func svcSchedule(seed int64, hot []string, n int, traced bool) []svcRequest {
	rng := rand.New(rand.NewSource(seed))
	var out []svcRequest
	k, j := 0, 0
	for t := time.Duration(0); len(out) < n; {
		t += time.Duration(rng.ExpFloat64() / svcRate * float64(time.Second))
		if len(out)%svcFreshEvery == svcFreshEvery-1 {
			f := freshTuple(k, seed*1_000_000+int64(k))
			out = append(out, svcRequest{at: t, path: f.path, fresh: &f, traced: traced && k%2 == 1})
			k++
		} else {
			out = append(out, svcRequest{at: t, path: hot[rng.Intn(len(hot))], traced: traced && j%2 == 1})
			j++
		}
	}
	return out
}

// windowed splits the request latencies into svcWindow windows by
// scheduled send time and returns each window's p50 and p99.
func windowed(reqs []svcRequest, lat durations) (p50s, p99s durations) {
	byWin := map[int]durations{}
	for i, r := range reqs {
		byWin[int(r.at/svcWindow)] = append(byWin[int(r.at/svcWindow)], lat[i])
	}
	for _, d := range byWin {
		p50s = append(p50s, d.quantile(0.5))
		p99s = append(p99s, d.quantile(0.99))
	}
	return p50s, p99s
}

// svcResult is one request's outcome.
type svcResult struct {
	lat   time.Duration // from its scheduled send time
	svc   time.Duration // from its actual send
	cache string
	body  []byte
	err   error
}

// requestPhase runs one slice of the open loop, whose schedule starts
// at offset: a dispatcher releases each request at its scheduled time
// to one of two senders, one per connection, modelling two independent
// client populations: one repeats the hot set, the other asks fresh
// tuples. A fresh request's computation thus never holds up a cache
// hit at the client, only at the server. A request that waits for its
// sender waits on the clock, which its latency includes.
func requestPhase(e *env, s *service, reqs []svcRequest, offset time.Duration) (res []svcResult, lags durations, wall, cpu time.Duration) {
	res = make([]svcResult, len(reqs))
	lags = make(durations, 0, len(reqs))
	// Each sized to the number of sends, so the dispatcher never blocks
	// and stays on schedule.
	hot, fresh := make(chan int, len(reqs)), make(chan int, len(reqs))
	var wg sync.WaitGroup
	c0, start := cpuNow(), time.Now()
	for _, work := range []chan int{hot, fresh} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					e.rep.fail(fmt.Errorf("service: request sender panicked: %v", p))
				}
			}()
			for i := range work {
				var tr *tracer
				if reqs[i].traced {
					tr = e.tr
				}
				res[i] = s.send(tr, start.Add(reqs[i].at-offset), reqs[i].path)
			}
		}()
	}
	for i, r := range reqs {
		if e.ctx.Err() != nil {
			res[i].err = e.ctx.Err()
			continue
		}
		due := start.Add(r.at - offset)
		time.Sleep(time.Until(due))
		lags = append(lags, time.Since(due))
		if r.fresh != nil {
			fresh <- i
		} else {
			hot <- i
		}
	}
	close(hot)
	close(fresh)
	wg.Wait()
	return res, lags, time.Since(start), cpuNow() - c0
}

// send makes one request. Its root span starts at the actual send, so
// traced and untraced totals compare service times; the wait behind
// the schedule is reported as generator lag and in the latency.
func (s *service) send(tr *tracer, due time.Time, path string) svcResult {
	tid := tr.newTrace()
	root := tr.begin("iter", -1, tid)
	defer tr.end(root)
	var r svcResult
	r.svc = tr.timed("serve.request", root, tid, func() { r.body, r.cache, r.err = s.get(path) })
	r.lat = time.Since(due)
	return r
}

// counters reads the service counters the benchmark reports.
type counters struct {
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Cache    struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Collapsed int64 `json:"collapsed"`
	} `json:"cache"`
}

func (s *service) counters() (counters, error) {
	var c counters
	body, _, err := s.get("/metrics")
	if err == nil {
		err = json.Unmarshal(body, &c)
	}
	return c, err
}

// jobRun is one flood job's outcome, from polled state changes.
type jobRun struct {
	seed     int64
	traced   bool
	id       string
	total    time.Duration // submit to done
	queued   time.Duration // submit to first seen running
	attempts int
	result   []byte
	ckFiles  int
	ckBytes  int64
	err      error
}

// flood runs one job. A single job.flood span covers it from submit to
// result: the job runs in the manager's goroutines (engine rounds and
// checkpoint writes) while the client polls, so all of that time is
// job layer time.
func (s *service) flood(e *env, tr *tracer, seed int64) jobRun {
	r := jobRun{seed: seed, traced: tr != nil}
	tid := tr.newTrace()
	root := tr.begin("iter", -1, tid)
	defer tr.end(root)
	tr.timed("job.flood", root, tid, func() { s.floodJob(e, &r) })
	files, _ := filepath.Glob(filepath.Join(s.dir, r.id, "ck-*"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			r.ckFiles++
			r.ckBytes += fi.Size()
		}
	}
	return r
}

// floodJob submits r's job, polls it until done and fetches its
// result, recording the state changes it sees.
func (s *service) floodJob(e *env, r *jobRun) {
	spec, _ := json.Marshal(job.Spec{Kind: "flood", Host: floodHost, Rounds: floodRounds, CheckpointEvery: floodEvery, Seed: r.seed})
	t0 := time.Now()
	var st job.Status
	r.err = func() error {
		resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	}()
	r.id = st.ID
	for r.err == nil && st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			return
		}
		if e.ctx.Err() != nil {
			r.err = e.ctx.Err()
			return
		}
		time.Sleep(pollEvery)
		var body []byte
		if body, _, r.err = s.get("/v1/jobs/" + r.id); r.err == nil {
			r.err = json.Unmarshal(body, &st)
		}
		if st.State != "pending" && r.queued == 0 {
			r.queued = time.Since(t0)
		}
	}
	if r.err == nil {
		r.total = time.Since(t0)
		r.attempts = st.Attempts
		r.result, _, r.err = s.get("/v1/jobs/" + r.id + "/result")
	}
}

// floodBody mirrors a flood job's result.
type floodBody struct {
	Kind      string `json:"kind"`
	Host      string `json:"host"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	Horizon   int    `json:"horizon"`
	Rounds    int    `json:"rounds"`
	Leader    int    `json:"leader"`
	Converged int    `json:"converged"`
}

// checkFlood holds a job result to a direct FloodMax run on the same
// spec.
func checkFlood(r jobRun) error {
	if r.err != nil {
		return fmt.Errorf("service: flood job seed %d: %w", r.seed, r.err)
	}
	var got floodBody
	if err := json.Unmarshal(r.result, &got); err != nil {
		return fmt.Errorf("service: flood job %s result: %w", r.id, err)
	}
	rh, err := host.Parse(floodHost)
	if err != nil {
		return err
	}
	h := model.HostFromGraph(rh.G)
	if rh.D != nil {
		h = &model.Host{D: rh.D, G: rh.G}
	}
	n := h.G.N()
	res, err := algorithms.FloodMax(h, rand.New(rand.NewSource(r.seed)).Perm(8 * n)[:n], floodRounds)
	if err != nil {
		return err
	}
	want := floodBody{Kind: "flood", Host: rh.Desc, N: n, Seed: r.seed, Horizon: floodRounds,
		Rounds: res.Rounds, Leader: res.Leader, Converged: res.Converged}
	if got != want {
		return fmt.Errorf("service: flood job %s = %+v, direct FloodMax %+v", r.id, got, want)
	}
	return nil
}

// checkRequest holds one response to the expected one: a hot request
// must hit and return its first response byte for byte; a fresh one
// must miss and equal the direct library computation, whose time is
// added to compute.
func checkRequest(s *service, req svcRequest, r svcResult, compute *durations) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("service: %s: %w", req.path, r.err)
	case req.fresh == nil:
		if r.cache != "hit" || !bytes.Equal(r.body, s.first[req.path]) {
			return fmt.Errorf("service: %s: X-Cache %q, body equal to first response: %v", req.path, r.cache, bytes.Equal(r.body, s.first[req.path]))
		}
		return nil
	case r.cache != "miss":
		return fmt.Errorf("service: fresh %s: X-Cache %q", req.path, r.cache)
	}
	got, err := req.fresh.decode(r.body)
	if err != nil {
		return fmt.Errorf("service: %s: decode: %w", req.path, err)
	}
	t := time.Now()
	want, err := req.fresh.direct()
	*compute = append(*compute, time.Since(t))
	if err != nil {
		return fmt.Errorf("service: %s: direct call: %w", req.path, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("service: %s: response %+v, direct call %+v", req.path, got, want)
	}
	return nil
}

// handlerHits times ServeHTTP on a hot path with no socket.
func handlerHits(s *service, path string, k int) (durations, error) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	d := make(durations, 0, k)
	for i := 0; i < k; i++ {
		w := httptest.NewRecorder()
		t := time.Now()
		s.srv.ServeHTTP(w, req)
		d = append(d, time.Since(t))
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), s.first[path]) {
			return d, fmt.Errorf("service: direct ServeHTTP %s: status %d X-Cache %q", path, w.Code, w.Header().Get("X-Cache"))
		}
	}
	return d, nil
}

func runService(e *env) error {
	hot := hotSet(e.seed)
	var s *service
	err := e.setups(9, func() { s.close() }, func(int) error {
		root := e.tr.begin("setup", -1, e.tr.newTrace())
		defer e.tr.end(root)
		var err error
		e.tr.timed("serve.start", root, 0, func() { s, err = startService(e, hot) })
		return err
	})
	if err != nil {
		return err
	}
	length := float64(e.dur) * svcRequestShare / float64(time.Second)
	reqs := svcSchedule(e.seed, hot, max(svcJobs, int(svcRate*length)), e.tr != nil)
	c0, err := s.counters()
	if err != nil {
		return err
	}
	// Slice j holds an equal share of the requests and is followed by
	// job j; in a traced run every other job is traced.
	var results []svcResult
	var lags, jobCPU durations
	var jobs []jobRun
	var phase, reqCPU time.Duration
	shuffle := rand.New(rand.NewSource(e.seed))
	for j := 0; j < svcJobs && e.ctx.Err() == nil; j++ {
		lo, hi := j*len(reqs)/svcJobs, (j+1)*len(reqs)/svcJobs
		var offset time.Duration
		if lo > 0 {
			offset = reqs[lo-1].at
		}
		res, lg, wall, cpu := requestPhase(e, s, reqs[lo:hi], offset)
		results, lags = append(results, res...), append(lags, lg...)
		phase, reqCPU = phase+wall, reqCPU+cpu
		var tr *tracer
		if j%2 == 1 {
			tr = e.tr
		}
		// Each job starts from a collected heap with a fresh layout, as
		// the operations of the other workloads do.
		runtime.GC()
		held := shuffleHeap(shuffle, 1<<20)
		c := cpuNow()
		jobs = append(jobs, s.flood(e, tr, e.seed*1000+int64(j)))
		jobCPU = append(jobCPU, cpuNow()-c)
		runtime.KeepAlive(held)
	}
	if len(results) != len(reqs) {
		return fmt.Errorf("service: cancelled after %d of %d requests", len(results), len(reqs))
	}
	c1, err := s.counters()
	if err != nil {
		return err
	}

	// untraced collects the service times of the untraced operations,
	// against which trace.overhead sets the traced ones.
	var lat, hits, misses, compute, jobTimes, queued, runs, untraced durations
	for i, r := range results {
		err := checkRequest(s, reqs[i], r, &compute)
		e.rep.op(err)
		switch {
		case err != nil:
			r.lat = time.Hour // a failed request misses any latency limit
		case r.cache == "hit":
			hits = append(hits, r.svc)
		default:
			misses = append(misses, r.svc)
		}
		if err == nil && !reqs[i].traced {
			untraced = append(untraced, r.svc)
		}
		lat = append(lat, r.lat)
	}
	var attempts, ckFiles, ckBytes int64
	for _, j := range jobs {
		err := checkFlood(j)
		e.rep.op(err)
		if err != nil {
			j.total = time.Hour
		} else if !j.traced {
			untraced = append(untraced, j.total)
		}
		jobTimes = append(jobTimes, j.total)
		queued = append(queued, j.queued)
		runs = append(runs, j.total-j.queued)
		attempts += int64(j.attempts)
		ckFiles += int64(j.ckFiles)
		ckBytes += j.ckBytes
	}
	p50s, p99s := windowed(reqs, lat)
	// The request slices count with all their CPU time, the jobs as
	// median CPU per job times jobs. The same flood job took about
	// 0.55 s of CPU, or about twice that in some jobs whose number moved
	// from none to a third of a run's jobs even with a heap shuffle
	// before each job (see shuffleHeap), so the median counts the
	// typical job; the slow ones show in the job_cpu_s.p99 row.
	ops := len(reqs) + len(jobs)
	jobsCPU := jobCPU.median() * time.Duration(len(jobs))
	e.setCPU((reqCPU+jobsCPU)/time.Duration(ops), ops,
		fmt.Sprintf("process CPU time per request or job (%.3g s requests, %d jobs x %.3g s median)", reqCPU.Seconds(), len(jobs), jobCPU.median().Seconds()))
	e.rep.addTimes("e2e", "job_cpu_s", jobCPU, "s", "process CPU time per flood job")
	note := fmt.Sprintf("open loop at %.0f req/s in %d slices, every %dth fresh, from scheduled send", svcRate, svcJobs, svcFreshEvery)
	e.rep.add("e2e", "req_p50_ms", p50s.median().Seconds()*1e3, "ms", len(lat), fmt.Sprintf("median of %d %v-window p50s; %s", len(p50s), svcWindow, note))
	e.rep.add("e2e", "req_p99_ms", p99s.median().Seconds()*1e3, "ms", len(lat), fmt.Sprintf("median of %d %v-window p99s", len(p99s), svcWindow))
	e.rep.addTimes("e2e", "req_ms.phase", lat, "ms", "all slices")
	e.rep.add("e2e", "job_p50_s", jobTimes.median().Seconds(), "s", len(jobTimes),
		fmt.Sprintf("flood %s rounds=%d checkpoint_every=%d, one after each request slice", floodHost, floodRounds, floodEvery))
	nrps := float64(floodN*floodRounds*len(jobTimes)) / jobTimes.sum().Seconds()
	e.rep.add("e2e", "job_node_rounds_per_s", nrps, "1/s", len(jobTimes), "flood node-rounds per second of job time")
	goodput := float64(len(hits)+len(misses)) / phase.Seconds()
	e.rep.add("e2e", "req_goodput_per_s", goodput, "1/s", len(lat), "answered requests per second, until the last response")
	e.rep.addTimes("layer", "serve.hit_ms", hits, "ms", "X-Cache: hit, from actual send")
	e.rep.addTimes("layer", "serve.miss_ms", misses, "ms", "X-Cache: miss, from actual send")
	e.rep.addTimes("layer", "serve.compute_ms", compute, "ms", "direct library call on each fresh tuple")
	h, m := c1.Cache.Hits-c0.Cache.Hits, c1.Cache.Misses-c0.Cache.Misses
	e.rep.add("layer", "serve.cache_hit_ratio", float64(h)/float64(max(1, h+m)), "ratio", int(h+m), "from /metrics")
	e.rep.add("layer", "serve.collapsed", float64(c1.Cache.Collapsed-c0.Cache.Collapsed), "count", 1, "from /metrics")
	e.rep.add("layer", "serve.shed", float64(c1.Shed-c0.Shed), "count", 1, "from /metrics")
	e.rep.add("layer", "serve.timeouts", float64(c1.Timeouts-c0.Timeouts), "count", 1, "from /metrics")
	e.rep.addTimes("layer", "loadgen.lag_ms", lags, "ms", "dispatch lateness: generator health, not a program metric")
	e.rep.addTimes("layer", "job.queued_ms", queued, "ms", "submit to first seen running")
	e.rep.addTimes("layer", "job.run_s", runs, "s", "first seen running to done")
	e.rep.add("layer", "job.attempts", float64(attempts), "count", len(jobs), "")
	e.rep.add("layer", "ckpt.files", float64(ckFiles), "count", len(jobs), "on disk after the jobs")
	e.rep.add("layer", "ckpt.bytes", float64(ckBytes), "bytes", len(jobs), "on disk after the jobs")
	if e.tr != nil {
		d, err := handlerHits(s, hot[0], 2000)
		e.rep.op(err)
		e.rep.addTimes("layer", "serve.handler_hit_us", d, "us", "direct ServeHTTP, no socket")
		e.rep.addSelfTimes(e.tr, e.w, untraced)
	}
	return nil
}
