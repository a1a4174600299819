package host

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// flatCapErr is the parse-time over-capacity diagnosis: a descriptor
// whose derived size cannot fit the int32 flat-CSR substrate fails
// here, before any build work, instead of wrapping ids deep inside a
// generator. The message names the families that can run without
// materialising (see shards.go).
func flatCapErr(what string, have int64) error {
	return fmt.Errorf("derived %s %d exceeds the flat-CSR int32 capacity %d: host exceeds flat-CSR capacity, use shards (shard-capable families: %s)",
		what, have, int64(graph.FlatCapacity), strings.Join(ShardFamilies(), ", "))
}

// checkFlat validates a family's derived node count and directed
// arc-slot count at parse time. Families call it after their own
// range checks, before constructing anything.
func checkFlat(nodes, arcs int64) error {
	if nodes > graph.FlatCapacity {
		return flatCapErr("node count", nodes)
	}
	if arcs > graph.FlatCapacity {
		return flatCapErr("arc count", arcs)
	}
	return nil
}

// fitsFlat is checkFlat for a family that is built both flat and
// implicitly from one Source: it checks only when p builds a flat host.
func (p *Params) fitsFlat(nodes, arcs int64) error {
	if !p.flat {
		return nil
	}
	return checkFlat(nodes, arcs)
}

// mulNodes multiplies dimension factors in 64 bits, stopping with a
// capacity error the moment the running product leaves flat-CSR range
// (so torus:100000x100000 fails fast instead of overflowing).
func mulNodes(factors []int) (int64, error) {
	n := int64(1)
	for _, f := range factors {
		if int64(f) > graph.FlatCapacity {
			return 0, flatCapErr("node count", int64(f))
		}
		n *= int64(f)
		if n > graph.FlatCapacity {
			return 0, flatCapErr("node count", n)
		}
	}
	return n, nil
}
