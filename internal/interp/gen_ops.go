//go:build ignore

// gen_ops writes ops.go, the VM's operator closures, from one table of
// the int and float operators: each operator's arithmetic, its cost
// model entry and op class, and its division-by-zero fault are written
// here once and expanded into
//
//   - a closure per operator and operand shape (intOp, floatOp),
//   - a closure per compound-assignable operator and right operand shape
//     for updates of a loaded value (intUpdate, floatUpdate),
//   - the static price of each operator (opPrice), and
//   - the generic evaluators that the guard-miss path runs (intBinary,
//     floatBinary).
//
// Run it with go generate ./internal/interp; TestOpsUpToDate fails when
// ops.go differs from its output.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// op is one operator of a family: arith is a Go expression over the
// operand placeholders %[1]s and %[2]s.
type op struct {
	tok    string // the minic token
	arith  string
	cost   string // the cost.Model entry it charges
	cmp    bool   // yields a truth value
	zero   string // the fault when the right operand is zero
	update bool   // has a compound assignment (or ++/--) form
}

type family struct {
	name  string // "int" or "float"
	kind  string // the Kind both guarded operands take
	class string // the OpCounts class, unless cost names Mul or Div
	ops   []op
}

var families = []family{
	{name: "int", kind: "KInt", class: "IntOps", ops: []op{
		{tok: "Plus", arith: "%[1]s + %[2]s", cost: "IntALU", update: true},
		{tok: "Minus", arith: "%[1]s - %[2]s", cost: "IntALU", update: true},
		{tok: "Star", arith: "%[1]s * %[2]s", cost: "IntMul", update: true},
		{tok: "Slash", arith: "%[1]s / %[2]s", cost: "IntDiv", zero: "integer division by zero", update: true},
		{tok: "Percent", arith: "%[1]s %% %[2]s", cost: "IntDiv", zero: "integer modulo by zero", update: true},
		{tok: "Shl", arith: "%[1]s << uint(%[2]s&63)", cost: "IntALU", update: true},
		{tok: "Shr", arith: "%[1]s >> uint(%[2]s&63)", cost: "IntALU", update: true},
		{tok: "Amp", arith: "%[1]s & %[2]s", cost: "IntALU", update: true},
		{tok: "Pipe", arith: "%[1]s | %[2]s", cost: "IntALU", update: true},
		{tok: "Caret", arith: "%[1]s ^ %[2]s", cost: "IntALU", update: true},
		{tok: "Lt", arith: "%[1]s < %[2]s", cost: "IntALU", cmp: true},
		{tok: "Gt", arith: "%[1]s > %[2]s", cost: "IntALU", cmp: true},
		{tok: "Le", arith: "%[1]s <= %[2]s", cost: "IntALU", cmp: true},
		{tok: "Ge", arith: "%[1]s >= %[2]s", cost: "IntALU", cmp: true},
		{tok: "EqEq", arith: "%[1]s == %[2]s", cost: "IntALU", cmp: true},
		{tok: "NotEq", arith: "%[1]s != %[2]s", cost: "IntALU", cmp: true},
	}},
	{name: "float", kind: "KFloat", class: "FloatOps", ops: []op{
		{tok: "Plus", arith: "%[1]s + %[2]s", cost: "FloatAdd", update: true},
		{tok: "Minus", arith: "%[1]s - %[2]s", cost: "FloatAdd", update: true},
		{tok: "Star", arith: "%[1]s * %[2]s", cost: "FloatMul", update: true},
		{tok: "Slash", arith: "fdiv(%[1]s, %[2]s)", cost: "FloatDiv", update: true},
		{tok: "Lt", arith: "%[1]s < %[2]s", cost: "FloatCmp", cmp: true},
		{tok: "Gt", arith: "%[1]s > %[2]s", cost: "FloatCmp", cmp: true},
		{tok: "Le", arith: "%[1]s <= %[2]s", cost: "FloatCmp", cmp: true},
		{tok: "Ge", arith: "%[1]s >= %[2]s", cost: "FloatCmp", cmp: true},
		{tok: "EqEq", arith: "%[1]s == %[2]s", cost: "FloatCmp", cmp: true},
		{tok: "NotEq", arith: "%[1]s != %[2]s", cost: "FloatCmp", cmp: true},
	}},
}

// class is the OpCounts class op charges in family f.
func (f family) classOf(o op) string {
	switch o.cost {
	case "IntMul":
		return "MulOps"
	case "IntDiv":
		return "DivOps"
	}
	return f.class
}

// operand is how a closure obtains one operand: the names bound at
// lowering to vals, the names bound in the closure to gets, and the name
// of the payload the arithmetic reads when it is not a guarded Value.
type operand struct {
	names, vals []string
	get, getVal string
	val         string
}

// left and right are the fetches of the left (a) and right (c) operand
// in a shape.
func left(s byte) operand {
	switch s {
	case 'X':
		return operand{names: []string{"x"}, vals: []string{"x.eval"}, get: "a", getVal: "x(fr)"}
	case 'L':
		return operand{names: []string{"xs"}, vals: []string{"x.slot"}, get: "a", getVal: "mc.read(fr, xs)"}
	case 'R': // an update's loaded value, passed in as a
		return operand{}
	}
	panic(s)
}

func right(f family, s byte) operand {
	switch s {
	case 'X':
		return operand{names: []string{"y"}, vals: []string{"y.eval"}, get: "c", getVal: "y(fr)"}
	case 'L':
		return operand{names: []string{"ys"}, vals: []string{"y.slot"}, get: "c", getVal: "mc.read(fr, ys)"}
	case 'K':
		k := "y.val.n"
		if f.name == "float" {
			k = "num(y.val)"
		}
		return operand{names: []string{"k", "kv"}, vals: []string{k, "y.val"}, val: "k"}
	}
	panic(s)
}

// binds writes one multiple assignment of vals to names, if any.
func binds(w *bytes.Buffer, names, vals []string) {
	if len(names) > 0 {
		fmt.Fprintf(w, "%s := %s\n", strings.Join(names, ", "), strings.Join(vals, ", "))
	}
}

// payload is the expression reading v's payload in family f, given the
// guard: both Values' kinds are the family's, or (float) one is KInt.
func payload(f family, v string, alone bool) string {
	switch {
	case f.name == "int":
		return v + ".n"
	case alone:
		return v + ".float()"
	}
	return "num(" + v + ")"
}

// The shapes of the operator closures, and of the update closures, whose
// loaded value (R) stands where an X left operand would.
var (
	opShapes     = []string{"XX", "XK", "XL", "LK", "LL", "LX"}
	updateShapes = []string{"RX", "RK", "RL"}
)

// closure writes the closure of operator o of family f for one shape.
func closure(w *bytes.Buffer, f family, o op, shape string, update bool) {
	l, r := left(shape[0]), right(f, shape[1])
	binds(w, append(l.names, r.names...), append(l.vals, r.vals...))
	if update {
		w.WriteString("return func(fr *Seg, a Value) Value {\n")
	} else {
		w.WriteString("return func(fr *Seg) Value {\n")
	}
	var names, vals []string
	for _, g := range []operand{l, r} {
		if g.get != "" {
			names, vals = append(names, g.get), append(vals, g.getVal)
		}
	}
	binds(w, names, vals)
	// The guard admits exactly the operands on which binary takes this
	// family's path with this operator.
	alone := r.val != ""
	if alone {
		fmt.Fprintf(w, "if a.K != %s {\nreturn mc.miss(b, a, kv)\n}\n", f.kind)
	} else {
		fmt.Fprintf(w, "if a.K|c.K != %s {\nreturn mc.miss(b, a, c)\n}\n", f.kind)
	}
	av, rv := payload(f, "a", alone), r.val
	if rv == "" {
		rv = payload(f, "c", false)
	}
	if o.zero != "" {
		fmt.Fprintf(w, "if %s == 0 {\npanic(rtErr(b.pos, %q))\n}\n", rv, o.zero)
	}
	fmt.Fprintf(w, "return %s\n}\n", result(f, o, av, rv))
}

func result(f family, o op, a, c string) string {
	e := fmt.Sprintf(o.arith, a, c)
	switch {
	case o.cmp:
		return "boolVal(" + e + ")"
	case f.name == "int":
		return "IntVal(" + e + ")"
	}
	return "FloatVal(" + e + ")"
}

func main() {
	out := flag.String("o", "ops.go", "output file")
	flag.Parse()
	var w bytes.Buffer
	w.WriteString(`// Code generated by gen_ops.go; DO NOT EDIT.

package interp

import "compreuse/internal/minic"
`)
	for _, f := range families {
		fmt.Fprintf(&w, "\n// %sOp returns the closure of %s operator b on operands x and y, or\n", f.name, f.name)
		w.WriteString("// nil when b has none. The closure pays neither the operands' prices nor\n")
		w.WriteString("// b.price, and on a guard miss takes b.price back.\n")
		fmt.Fprintf(&w, "func (mc *Machine) %sOp(b *binop, x, y *operand) expr {\n", f.name)
		fmt.Fprintf(&w, "switch b.op {\n")
		for _, o := range f.ops {
			fmt.Fprintf(&w, "case minic.%s:\nswitch opShape(x, y, %s) {\n", o.tok, f.kind)
			for _, s := range opShapes {
				fmt.Fprintf(&w, "case sh%s:\n", s)
				closure(&w, f, o, s, false)
			}
			w.WriteString("}\n")
		}
		w.WriteString("}\nreturn nil\n}\n")

		fmt.Fprintf(&w, "\n// %sUpdate returns the closure that applies %s operator b to a loaded\n", f.name, f.name)
		fmt.Fprintf(&w, "// value and operand y, or nil when b has none; it pays as %sOp's do.\n", f.name)
		fmt.Fprintf(&w, "func (mc *Machine) %sUpdate(b *binop, y *operand) update {\n", f.name)
		fmt.Fprintf(&w, "switch b.op {\n")
		for _, o := range f.ops {
			if !o.update {
				continue
			}
			fmt.Fprintf(&w, "case minic.%s:\nswitch opShape(nil, y, %s) {\n", o.tok, f.kind)
			for _, s := range updateShapes {
				fmt.Fprintf(&w, "case shX%c:\n", s[1])
				closure(&w, f, o, s, true)
			}
			w.WriteString("}\n")
		}
		w.WriteString("}\nreturn nil\n}\n")

		fmt.Fprintf(&w, "\n// %sBinary applies %s operator op, charging it.\n", f.name, f.name)
		if f.name == "int" {
			w.WriteString("func (mc *Machine) intBinary(op minic.TokKind, a, c int64, pos minic.Pos) Value {\n")
		} else {
			w.WriteString("func (mc *Machine) floatBinary(op minic.TokKind, a, c float64, pos minic.Pos) Value {\n")
		}
		w.WriteString("switch op {\n")
		for _, o := range f.ops {
			fmt.Fprintf(&w, "case minic.%s:\n", o.tok)
			fmt.Fprintf(&w, "mc.cycles += mc.m.%s\nmc.ops.%s++\n", o.cost, f.classOf(o))
			if o.zero != "" {
				fmt.Fprintf(&w, "if c == 0 {\npanic(rtErr(pos, %q))\n}\n", o.zero)
			}
			fmt.Fprintf(&w, "return %s\n", result(f, o, "a", "c"))
		}
		w.WriteString("}\n")
		if f.name == "int" {
			w.WriteString("panic(rtErr(pos, \"unhandled binary operator %v\", op))\n}\n")
		} else {
			w.WriteString("panic(rtErr(pos, \"invalid float operation %v\", op))\n}\n")
		}
	}

	w.WriteString("\n// opPrice is the static price of operator op in the int or float family,\n")
	w.WriteString("// and whether the family has the operator.\n")
	w.WriteString("func (mc *Machine) opPrice(op minic.TokKind, float bool) (price, bool) {\n")
	for i, f := range families {
		if i == 0 {
			w.WriteString("if !float {\n")
		}
		w.WriteString("switch op {\n")
		byCost := map[string][]string{}
		var costs []string
		for _, o := range f.ops {
			k := o.cost + " " + f.classOf(o)
			if byCost[k] == nil {
				costs = append(costs, k)
			}
			byCost[k] = append(byCost[k], "minic."+o.tok)
		}
		for _, k := range costs {
			c, class, _ := strings.Cut(k, " ")
			fmt.Fprintf(&w, "case %s:\nreturn price{cycles: mc.m.%s, lanes: lane%s}, true\n", strings.Join(byCost[k], ", "), c, class)
		}
		w.WriteString("}\n")
		if i == 0 {
			w.WriteString("return price{}, false\n}\n")
		}
	}
	w.WriteString("return price{}, false\n}\n")

	src, err := format.Source(w.Bytes())
	if err != nil {
		log.Fatalf("gen_ops: %v\n%s", err, w.Bytes())
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		log.Fatal(err)
	}
}
