// Package interp is the MiniC virtual machine. It executes checked MiniC
// programs with cycle-accurate accounting against a cost.Model, standing in
// for the paper's 206 MHz StrongARM SA-1110 (Compaq iPAQ 3650).
//
// Beyond plain execution the VM provides the two services the
// computation-reuse scheme needs:
//
//   - execution-frequency profiling (the gprof/gcov stand-in of §2.1):
//     per-node execution counts for functions, loop bodies and branches;
//   - ReuseRegion execution: value-set profiling (ModeProfile tables) and
//     the production table look-up semantics of Figure 2(b) (ModeReuse),
//     charging the modeled hashing overhead so that transformed programs
//     pay for their probes exactly as the cost model predicts.
//
// Each run lowers the checked AST into Go closures (lower.go), once and
// per function on its first call, resolving slots, strides, conversions,
// call targets, reuse tables, each operator and the shapes of its
// operands (ops.go), and the static price of straight-line code, which a
// statement pays once (DESIGN.md, "The lowered VM"). Operators specialize
// on static operand types behind a dynamic-kind guard: a value's kind can
// differ from its static type (an unassigned float struct field or
// pointer holds int 0), and the generic path then follows the kinds.
package interp

import (
	"fmt"
	"math"

	"compreuse/internal/minic"
)

// Kind discriminates VM values.
type Kind uint8

// Value kinds.
const (
	KInt Kind = iota
	KFloat
	KPtr
	KFunc
)

// Seg is a storage segment: the global area or one call frame. Pointers
// reference cells within a segment, so frames stay valid while pointed-to.
// A function's code segment has no cells; function values point at it.
type Seg struct {
	data []Value
	// covers lists the dependence watchers' ranges over this segment
	// (see depWatcher); empty unless a dep region is watching it. It sits
	// next to data, which every load and store that checks it reads.
	covers []cover
	name   string
	fn     *function
}

// Ptr is a VM pointer: a cell offset within a segment. The zero Ptr is the
// null pointer. Pointer arithmetic scales by the pointee's word size,
// which lowering resolves from the static type.
type Ptr struct {
	seg *Seg
	off int
}

// Value is one VM scalar in three words: the kind, a 64-bit payload (an
// int, a float's bits or a pointer's cell offset) and the segment of a
// pointer or function value.
type Value struct {
	K   Kind
	n   int64
	seg *Seg
}

// IntVal makes an int value.
func IntVal(v int64) Value { return Value{K: KInt, n: v} }

// FloatVal makes a float value.
func FloatVal(v float64) Value { return Value{K: KFloat, n: int64(math.Float64bits(v))} }

func ptrVal(p Ptr) Value { return Value{K: KPtr, n: int64(p.off), seg: p.seg} }

// ptr is a pointer value's address; float its number (for KFloat).
func (v Value) ptr() Ptr       { return Ptr{seg: v.seg, off: int(v.n)} }
func (v Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// ival and fval read a value as an int or a float the way a kind-tagged
// union with separate fields would: a payload of another kind reads as 0.
func (v Value) ival() int64 {
	if v.K == KInt {
		return v.n
	}
	return 0
}

func (v Value) fval() float64 {
	if v.K == KFloat {
		return v.float()
	}
	return 0
}

// Truthy reports C truth: nonzero / non-null.
func (v Value) Truthy() bool {
	switch v.K {
	case KInt:
		return v.n != 0
	case KFloat:
		return v.float() != 0
	}
	return v.seg != nil
}

// conv is an assignment conversion resolved from the static target type
// at lower time: the VM coerces a value to the representation of an int,
// float or pointer slot and passes everything else through.
type conv uint8

// A conv other than convNone is one more than the Kind it converts to.
const (
	convNone conv = iota // function pointers, struct words: bit-preserving
	convInt
	convFloat
	convPtr
)

func convOf(t minic.Type) conv {
	switch {
	case minic.IsInt(t):
		return convInt
	case minic.IsFloat(t):
		return convFloat
	}
	if _, ok := t.(*minic.Pointer); ok {
		return convPtr
	}
	return convNone
}

// do coerces v to c's representation (assignment semantics). A value
// already of c's kind passes unchanged.
func (c conv) do(v Value) Value {
	if c == convNone || v.K == Kind(c-1) {
		return v
	}
	return c.convert(v)
}

func (c conv) convert(v Value) Value {
	switch c {
	case convInt:
		if v.K == KFloat {
			return IntVal(int64(v.float()))
		}
		// A pointer converts to its segment-relative offset, a function
		// value to 0.
		return IntVal(v.n)
	case convFloat:
		if v.K == KInt {
			return FloatVal(float64(v.n))
		}
		return FloatVal(v.fval())
	case convPtr:
		if v.K == KInt {
			// Integer-to-pointer: only the null constant is meaningful in
			// the VM's segmented memory; any integer converts to null.
			return Value{K: KPtr}
		}
	}
	return v
}

// RuntimeError is a MiniC execution fault (null dereference, division by
// zero, out-of-bounds access, step limit, assertion failure).
type RuntimeError struct {
	Pos minic.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

func rtErr(pos minic.Pos, format string, args ...any) *RuntimeError {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
