package model

import (
	"fmt"
	"math/rand"
)

// PermPrefix returns rng.Perm(m)[:n] — the ID model's seeded injection
// of n identifiers into [0, m) — and leaves rng exactly where Perm(m)
// leaves it, but allocates the n-entry prefix only, not the m-entry
// permutation.
//
// Perm(m) runs, for i = 0..m-1, j = Intn(i+1), p[i] = p[j], p[j] = i.
// The iterations i < n are Perm(n)'s own loop; after them an entry
// below n changes only through p[j] = i with j < n. So the prefix is
// Perm(n)'s loop followed by those overwrites, with every draw of
// Perm(m) still made.
func PermPrefix(rng *rand.Rand, m, n int) []int {
	if n < 0 || n > m {
		panic(fmt.Sprintf("model: PermPrefix: prefix of %d entries of a permutation of %d", n, m))
	}
	head := make([]int, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		head[i] = head[j]
		head[j] = i
	}
	for i := n; i < m; i++ {
		if j := rng.Intn(i + 1); j < n {
			head[j] = i
		}
	}
	return head
}
