// Package group implements the three group families of Section 5 of
// the paper:
//
//	H_1 = Z_m,  H_{i+1} = H_i² ⋊ Z_m   (m even)
//	W_1 = Z_2,  W_{i+1} = W_i² ⋊ Z_2   (iterated wreath products of Z_2)
//	U_1 = Z,    U_{i+1} = U_i² ⋊ Z
//
// where the cyclic factor acts on the direct square by swapping the two
// coordinates iff its value is odd. The underlying set of a level-i
// group is the set of d(i)-tuples of integers, d(i) = 2^i − 1; the
// coordinate-wise reductions mod m and mod 2 are the paper's
// homomorphisms ψ: U → H and φ': H → W.
//
// The package also provides Cayley graphs of these groups as implicit
// digraphs, girth certification by enumerating reduced words, and the
// left-invariant linear order on U defined by the positive cone
// P = { (u_1, …, u_i, 0, …, 0) : u_i > 0 } (the last nonzero
// coordinate is positive).
package group

import (
	"fmt"
	"math/big"
	"math/rand"
)

// Elem is a group element: a tuple of integers of length Dim() for its
// family. Elements of finite families keep coordinates in [0, mod).
type Elem []int

// Clone returns a copy of e.
func (e Elem) Clone() Elem { return append(Elem(nil), e...) }

// Equal reports whether two elements are equal as tuples.
func (e Elem) Equal(f Elem) bool {
	if len(e) != len(f) {
		return false
	}
	for i := range e {
		if e[i] != f[i] {
			return false
		}
	}
	return true
}

// Family identifies one group family at one level.
type Family struct {
	// Level is the index i >= 1 in the iterated construction.
	Level int
	// Mod is 0 for U_i (integer coordinates), 2 for W_i, or any even
	// m >= 2 for H_i.
	Mod int
}

// U returns the infinite family U_level.
func U(level int) Family { return mustFamily(level, 0) }

// W returns the symmetric 2-group family W_level.
func W(level int) Family { return mustFamily(level, 2) }

// H returns the finite family H_level with coordinates mod m (m even).
func H(level, m int) Family { return mustFamily(level, m) }

func mustFamily(level, mod int) Family {
	f, err := NewFamily(level, mod)
	if err != nil {
		panic(err)
	}
	return f
}

// NewFamily validates and returns a family.
func NewFamily(level, mod int) (Family, error) {
	if level < 1 {
		return Family{}, fmt.Errorf("group: level %d < 1", level)
	}
	if mod < 0 || mod == 1 || mod%2 != 0 {
		return Family{}, fmt.Errorf("group: modulus %d must be 0 or a positive even number", mod)
	}
	return Family{Level: level, Mod: mod}, nil
}

// Dim returns the tuple length d(level) = 2^level − 1.
func (f Family) Dim() int { return 1<<f.Level - 1 }

// Finite reports whether the family is finite (Mod > 0).
func (f Family) Finite() bool { return f.Mod > 0 }

// Order returns |G| = Mod^Dim for finite families, or nil for U.
func (f Family) Order() *big.Int {
	if !f.Finite() {
		return nil
	}
	return new(big.Int).Exp(big.NewInt(int64(f.Mod)), big.NewInt(int64(f.Dim())), nil)
}

// Identity returns the identity element.
func (f Family) Identity() Elem { return make(Elem, f.Dim()) }

// norm reduces x into [0, Mod) for finite families and returns it
// unchanged for U. The coordinates mul adds are already reduced, so
// their sums lie in [0, 2·Mod): those operands take a compare and at
// most one subtraction, and only the others (negated coordinates,
// unreduced input) pay for the division.
func (f Family) norm(x int) int {
	m := f.Mod
	switch {
	case m == 0 || 0 <= x && x < m:
		return x
	case x >= m && x-m < m:
		return x - m
	}
	x %= m
	if x < 0 {
		x += m
	}
	return x
}

// Normalize maps each coordinate into [0, Mod) for finite families and
// returns the element unchanged for U.
func (f Family) Normalize(a Elem) Elem {
	out := make(Elem, len(a))
	for i, x := range a {
		out[i] = f.norm(x)
	}
	return out
}

// IsIdentity reports whether a is the identity.
func (f Family) IsIdentity(a Elem) bool {
	for _, x := range a {
		if f.norm(x) != 0 {
			return false
		}
	}
	return true
}

// Mul returns the product a·b.
//
// At level i+1 with a = (x, y | z) and b = (x', y' | z'):
//
//	a·b = (x·x', y·y' | z+z')  if z is even,
//	a·b = (x·y', y·x' | z+z')  if z is odd (the action swaps coordinates).
func (f Family) Mul(a, b Elem) Elem {
	f.check(a)
	f.check(b)
	out := make(Elem, f.Dim())
	f.mul(out, a, b, f.Level)
	return out
}

func (f Family) mul(dst, a, b Elem, level int) {
	if level == 1 {
		dst[0] = f.norm(a[0] + b[0])
		return
	}
	d := 1<<(level-1) - 1 // dim of each direct factor
	x, y, z := a[:d], a[d:2*d], a[2*d]
	xp, yp := b[:d], b[d:2*d]
	// Mod is even or 0, so reducing z keeps its parity.
	if odd(z) {
		xp, yp = yp, xp
	}
	f.mul(dst[:d], x, xp, level-1)
	f.mul(dst[d:2*d], y, yp, level-1)
	dst[2*d] = f.norm(z + b[2*d])
}

// Inv returns the inverse a^{-1}.
func (f Family) Inv(a Elem) Elem {
	f.check(a)
	out := make(Elem, f.Dim())
	f.inv(out, a, f.Level)
	return out
}

func (f Family) inv(dst, a Elem, level int) {
	if level == 1 {
		dst[0] = f.norm(-a[0])
		return
	}
	d := 1<<(level-1) - 1
	x, y, z := a[:d], a[d:2*d], a[2*d]
	if odd(z) { // z's parity survives reduction, as in mul
		// (x, y | z)^{-1} = (y^{-1}, x^{-1} | −z) when z is odd.
		x, y = y, x
	}
	f.inv(dst[:d], x, level-1)
	f.inv(dst[d:2*d], y, level-1)
	dst[2*d] = f.norm(-z)
}

func (f Family) check(a Elem) {
	if len(a) != f.Dim() {
		panic(fmt.Sprintf("group: element has dim %d, want %d", len(a), f.Dim()))
	}
}

// Reduce applies the coordinate-wise reduction homomorphism onto the
// target family at the same level. The source must be U (Mod 0) or have
// a modulus divisible by the target's. These are the paper's maps
// ψ: U → H, φ': H → W, φ: U → W.
func (f Family) Reduce(a Elem, target Family) (Elem, error) {
	if target.Level != f.Level {
		return nil, fmt.Errorf("group: reduce across levels %d -> %d", f.Level, target.Level)
	}
	if !target.Finite() {
		return nil, fmt.Errorf("group: cannot reduce to the infinite family")
	}
	if f.Finite() && f.Mod%target.Mod != 0 {
		return nil, fmt.Errorf("group: modulus %d does not divide %d", target.Mod, f.Mod)
	}
	f.check(a)
	return target.Normalize(a), nil
}

// Rand returns a uniformly random element of a finite family.
func (f Family) Rand(rng *rand.Rand) Elem {
	if !f.Finite() {
		panic("group: Rand on the infinite family U")
	}
	out := make(Elem, f.Dim())
	for i := range out {
		out[i] = rng.Intn(f.Mod)
	}
	return out
}

// RandSmall returns a random element of U with coordinates in
// [-bound, bound]; used for property testing the infinite family.
func (f Family) RandSmall(rng *rand.Rand, bound int) Elem {
	out := make(Elem, f.Dim())
	for i := range out {
		out[i] = rng.Intn(2*bound+1) - bound
	}
	return out
}

// Less reports a < b in the left-invariant linear order on U given by
// the positive cone P = { u : the last nonzero coordinate of u is
// positive }. It must only be called on the U family.
func (f Family) Less(a, b Elem) bool {
	if f.Finite() {
		panic("group: Less is defined on the infinite family U only")
	}
	w := f.Mul(f.Inv(a), b)
	return f.Positive(w)
}

// Positive reports w ∈ P, i.e. 1 < w.
func (f Family) Positive(w Elem) bool {
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] != 0 {
			return w[i] > 0
		}
	}
	return false
}

// index returns the odometer number Σ e[j]·Mod^j of an element of a
// finite family (coordinate 0 least significant), its vertex number in
// OrderedHost. OrderedHost reads product indices off productIndex
// instead; index(Mul(e, s)) is the test reference for those rows.
func (f Family) index(e Elem) int {
	v := 0
	for j := len(e) - 1; j >= 0; j-- {
		v = v*f.Mod + e[j]
	}
	return v
}

// next advances e to its successor in odometer order (coordinate 0
// fastest), the order index numbers.
func (f Family) next(e Elem) {
	for j := range e {
		if e[j]++; e[j] < f.Mod {
			return
		}
		e[j] = 0
	}
}

// urank returns the position of e, a tuple of the given level with
// coordinates in [0, Mod), within the cube [0, Mod)^d ordered by the
// U-order restricted to it (Section 5.2): the position that sorting
// the cube with U(level).Less gives, computed without a comparison. For
// a = (x_a, y_a | z_a) and b = (x_b, y_b | z_b),
//
//	a⁻¹b = (y_a⁻¹y_b, x_a⁻¹x_b | z_b − z_a)  if z_a is odd,
//	a⁻¹b = (x_a⁻¹x_b, y_a⁻¹y_b | z_b − z_a)  if z_a is even,
//
// and the positive cone reads the last coordinate first, so a < b
// compares z as an integer, then x before y when z is odd and y before
// x when z is even (z_a = z_b shares one parity), recursing down to
// level 1. With d′ = 2^(level−1) − 1 the rank is the mixed-radix
// number
//
//	rank(x, y | z) = z·Mod^(2d′) + rank(x)·Mod^(d′) + rank(y)  (z odd)
//	rank(x, y | z) = z·Mod^(2d′) + rank(y)·Mod^(d′) + rank(x)  (z even)
func (f Family) urank(e Elem, level int) int {
	if level == 1 {
		return e[0]
	}
	d := 1<<(level-1) - 1
	x, y, z := e[:d], e[d:2*d], e[2*d]
	if !odd(z) {
		x, y = y, x
	}
	block := 1
	for range d {
		block *= f.Mod
	}
	return (z*block+f.urank(x, level-1))*block + f.urank(y, level-1)
}

// String returns e.g. "U_3", "H_3(mod 8)", or "W_4".
func (f Family) String() string {
	switch f.Mod {
	case 0:
		return fmt.Sprintf("U_%d", f.Level)
	case 2:
		return fmt.Sprintf("W_%d", f.Level)
	default:
		return fmt.Sprintf("H_%d(mod %d)", f.Level, f.Mod)
	}
}

// odd reports whether x is odd; correct for negative x as well (Go's %
// yields negative remainders for negative operands).
func odd(x int) bool { return x%2 != 0 }
