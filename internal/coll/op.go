package coll

import (
	"encoding/binary"
	"fmt"
	"math"

	"lci/internal/core"
)

// Datatype names the element type a built-in reduction operates on.
// Buffers are little-endian element arrays; their length must be a
// multiple of the element size. User-supplied operations (UserFunc)
// ignore the datatype and see the raw byte buffers.
type Datatype uint8

const (
	// Int64 reduces over little-endian int64 elements.
	Int64 Datatype = iota
	// Float64 reduces over little-endian IEEE-754 float64 elements.
	Float64
)

// Size returns the element size in bytes.
func (dt Datatype) Size() int { return 8 }

func (dt Datatype) String() string {
	switch dt {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("datatype(%d)", uint8(dt))
	}
}

// Op is a reduction operator for Reduce/Allreduce: one of the built-ins
// (Sum, Min, Max) applied elementwise under a Datatype, or a user
// function over raw buffers (UserFunc). All operators must be associative
// and commutative — the algorithms combine contributions in
// rank-dependent orders.
type Op struct {
	name string
	user func(dst, src []byte)
}

// Built-in operators.
var (
	Sum = Op{name: "sum"}
	Min = Op{name: "min"}
	Max = Op{name: "max"}
)

// UserFunc wraps f as a reduction operator: f must fold src into dst
// (dst = dst ⊕ src) over the raw message bytes, and must be associative
// and commutative.
func UserFunc(f func(dst, src []byte)) Op { return Op{name: "user", user: f} }

// Name returns the operator's name (sum/min/max/user).
func (op Op) Name() string { return op.name }

// combiner resolves the concrete dst ⊕= src function for one message of
// `size` bytes under dt.
func (op Op) combiner(dt Datatype, size int) (func(dst, src []byte), error) {
	if op.user != nil {
		return op.user, nil
	}
	if op.name == "" {
		return nil, fmt.Errorf("%w: zero-value reduction op (use coll.Sum/Min/Max or UserFunc)", core.ErrInvalidArgument)
	}
	if size%dt.Size() != 0 {
		return nil, fmt.Errorf("%w: %d-byte buffer is not a whole number of %s elements", core.ErrInvalidArgument, size, dt)
	}
	var table map[string]func(dst, src []byte)
	switch dt {
	case Int64:
		table = int64Combiners
	case Float64:
		table = float64Combiners
	default:
		return nil, fmt.Errorf("%w: unknown datatype %d", core.ErrInvalidArgument, dt)
	}
	return table[op.name], nil
}

// The built-in combiners are resolved once, so a reduction call does not
// allocate its combine closure.
var (
	int64Combiners = map[string]func(dst, src []byte){
		"sum": int64Combiner(func(a, b int64) int64 { return a + b }),
		"min": int64Combiner(func(a, b int64) int64 { return min(a, b) }),
		"max": int64Combiner(func(a, b int64) int64 { return max(a, b) }),
	}
	float64Combiners = map[string]func(dst, src []byte){
		"sum": float64Combiner(func(a, b float64) float64 { return a + b }),
		"min": float64Combiner(math.Min),
		"max": float64Combiner(math.Max),
	}
)

func int64Combiner(f func(a, b int64) int64) func(dst, src []byte) {
	return func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(f(a, b)))
		}
	}
}

func float64Combiner(f func(a, b float64) float64) func(dst, src []byte) {
	return func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(f(a, b)))
		}
	}
}
