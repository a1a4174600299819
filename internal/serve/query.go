package serve

import (
	"net/url"
	"strings"
)

// queryParams is the manually parsed query string of a request. The
// fields are substrings of RawQuery (no map, no slice-of-pairs), so
// parsing allocates nothing on the cache-hit fast path; a value is
// unescaped — which allocates — only when it actually contains a
// %-escape or '+', which canonical descriptors never do.
type queryParams struct {
	host     string
	algo     string
	faults   string
	n        string
	seed     string
	rmax     string
	rounds   string
	shards   string
	deadline string
	// unknown is the first unrecognised parameter name, for the strict
	// 400 (the descriptor grammars fail loudly on unused arguments;
	// the query grammar does too).
	unknown string
}

func parseQuery(raw string) queryParams {
	var q queryParams
	for len(raw) > 0 {
		var kv string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			kv, raw = raw, ""
		}
		if kv == "" {
			continue
		}
		k, v := kv, ""
		if i := strings.IndexByte(kv, '='); i >= 0 {
			k, v = kv[:i], kv[i+1:]
		}
		v = unescape(v)
		switch k {
		case "host":
			q.host = v
		case "algo":
			q.algo = v
		case "faults":
			q.faults = v
		case "n":
			q.n = v
		case "seed":
			q.seed = v
		case "rmax":
			q.rmax = v
		case "rounds":
			q.rounds = v
		case "shards":
			q.shards = v
		case "deadline_ms":
			q.deadline = v
		default:
			if q.unknown == "" {
				q.unknown = k
			}
		}
	}
	return q
}

// unescape decodes %-escapes and '+' only when present; the common
// case returns the input substring unchanged.
func unescape(s string) string {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s
	}
	u, err := url.QueryUnescape(s)
	if err != nil {
		return s
	}
	return u
}

// atoiQ parses a non-negative decimal without allocating; ok is false
// on empty, non-digit or overflowing input.
func atoiQ(s string) (int, bool) {
	if s == "" || len(s) > 10 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// atoi64Q is atoiQ for seeds: 64-bit, optional leading '-'.
func atoi64Q(s string) (int64, bool) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	if s == "" || len(s) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
