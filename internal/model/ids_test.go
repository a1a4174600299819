package model

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermPrefixMatchesPerm: PermPrefix(rng, m, n) equals
// rng.Perm(m)[:n] and leaves the generator in the same state (equal
// next Int63), for empty, whole and strict prefixes, including the
// 65,536-of-524,288 draw of the 64K-cycle workloads.
func TestPermPrefixMatchesPerm(t *testing.T) {
	cases := []struct{ n, m int }{
		{0, 0}, {0, 1}, {0, 9}, {1, 1}, {1, 8}, {5, 5}, {7, 56},
		{100, 100}, {100, 800}, {1000, 10000}, {65536, 524288},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			want := rand.New(rand.NewSource(seed))
			wantIDs := want.Perm(c.m)[:c.n]
			got := rand.New(rand.NewSource(seed))
			gotIDs := PermPrefix(got, c.m, c.n)
			if !slices.Equal(gotIDs, wantIDs) {
				t.Fatalf("n=%d m=%d seed=%d: PermPrefix differs from Perm(m)[:n]", c.n, c.m, seed)
			}
			if len(gotIDs) != c.n || cap(gotIDs) != c.n {
				t.Fatalf("n=%d m=%d: len %d cap %d, want %d", c.n, c.m, len(gotIDs), cap(gotIDs), c.n)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("n=%d m=%d seed=%d: next Int63 %d, want %d", c.n, c.m, seed, g, w)
			}
		}
	}
}

// TestPermPrefixRejectsLongPrefix: a prefix longer than the
// permutation, or negative, panics as Perm(m)[:n] would.
func TestPermPrefixRejectsLongPrefix(t *testing.T) {
	for _, c := range []struct{ n, m int }{{2, 1}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PermPrefix(n=%d, m=%d) did not panic", c.n, c.m)
				}
			}()
			PermPrefix(rand.New(rand.NewSource(1)), c.m, c.n)
		}()
	}
}
