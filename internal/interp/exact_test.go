package interp

import (
	"fmt"
	"strings"
	"testing"

	"compreuse/internal/cost"
)

// The lowered operators run as closures specialized by operator and
// operand shape, whose static prices the statement pays once. The suite
// programs do not reach every closure, so TestSpecializedExact pins each
// one on its own: every int and float operator, compound assignment and
// ++/-- in every operand shape, and operands whose dynamic kind differs
// from their static type. A case runs one statement and checks the
// returned value and, against a run of the same program without the
// statement, the cycles and every OpCounts class the statement added.
// The expected charges are sums of cost-model fields, written here
// apart from the VM.

// exactPrelude declares the operands. The locals a, b, z, i, j, fa, fb,
// s, la, fm, p and np are frame locals (shape L, and s.x is one too), the
// literals shape K, and the globals ga, gb, gz, gfa, gfb and gs shape X.
const exactPrelude = `
struct P { float x; float y; };
struct P gs;
int ga = 23;
int gb = 5;
int gz = 0;
float gfa = 7.5;
float gfb = 2.25;
int arr[4] = {11, 13, 17, 19};
int mat[3][4] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
int two(void) { return 2; }
int main(void) {
    int a = 23;
    int b = 5;
    int z = 0;
    int i = 2;
    int j = 1;
    float fa = 7.5;
    float fb = 2.25;
    struct P s;
    int la[4];
    float fm[2][3];
    int *p = arr;
    int *np;
    int r = 0;
    float fr = 0.0;
`

// exactLine is the source line of the statement under test.
var exactLine = strings.Count(exactPrelude, "\n") + 1

// term names one charge: a cost-model field and the op class it counts.
type term string

const (
	tALU    term = "IntALU"
	tMul    term = "IntMul"
	tDiv    term = "IntDiv"
	tFAdd   term = "FloatAdd"
	tFMul   term = "FloatMul"
	tFDiv   term = "FloatDiv"
	tFCmp   term = "FloatCmp"
	tLoad   term = "Load"
	tStore  term = "Store"
	tLocal  term = "LocalAccess"
	tBranch term = "Branch"
	tCall   term = "Call"
	tRet    term = "Ret"
)

// sum prices terms under model m.
func sum(m *cost.Model, terms []term) (int64, OpCounts) {
	var c int64
	var o OpCounts
	for _, t := range terms {
		switch t {
		case tALU:
			c, o.IntOps = c+m.IntALU, o.IntOps+1
		case tMul:
			c, o.MulOps = c+m.IntMul, o.MulOps+1
		case tDiv:
			c, o.DivOps = c+m.IntDiv, o.DivOps+1
		case tFAdd:
			c, o.FloatOps = c+m.FloatAdd, o.FloatOps+1
		case tFMul:
			c, o.FloatOps = c+m.FloatMul, o.FloatOps+1
		case tFDiv:
			c, o.FloatOps = c+m.FloatDiv, o.FloatOps+1
		case tFCmp:
			c, o.FloatOps = c+m.FloatCmp, o.FloatOps+1
		case tLoad:
			c, o.MemOps = c+m.Load, o.MemOps+1
		case tStore:
			c, o.MemOps = c+m.Store, o.MemOps+1
		case tLocal:
			if m.LocalAccess != 0 {
				c, o.MemOps = c+m.LocalAccess, o.MemOps+1
			}
		case tBranch:
			c, o.Branches = c+m.Branch, o.Branches+1
		case tCall:
			c, o.Calls = c+m.Call, o.Calls+1
		case tRet:
			c += m.Ret
		}
	}
	return c, o
}

// exactCase is one statement: its source, the expression the program
// returns after it, the value wanted (or the fault, whose position is
// the column of the statement's first "@", dropped from the source),
// and the charges it adds.
type exactCase struct {
	stmt, ret string
	want      int64
	fault     string
	terms     []term
}

func ts(groups ...[]term) []term {
	var out []term
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// exactOperand is one operand of a generated case: its source, its value
// and what reading it charges.
type exactOperand struct {
	src   string
	i     int64
	f     float64
	terms []term
}

var (
	lIntA = exactOperand{"a", 23, 0, []term{tLocal}}
	lIntB = exactOperand{"b", 5, 0, []term{tLocal}}
	lIntZ = exactOperand{"z", 0, 0, []term{tLocal}}
	kInt  = exactOperand{"3", 3, 0, []term{tALU}}
	kZero = exactOperand{"0", 0, 0, []term{tALU}}
	xIntA = exactOperand{"ga", 23, 0, []term{tLoad}}
	xIntB = exactOperand{"gb", 5, 0, []term{tLoad}}
	xIntZ = exactOperand{"gz", 0, 0, []term{tLoad}}

	lFltA = exactOperand{"fa", 0, 7.5, []term{tLocal}}
	lFltB = exactOperand{"fb", 0, 2.25, []term{tLocal}}
	kFlt  = exactOperand{"0.5", 0, 0.5, []term{tALU}}
	kFInt = exactOperand{"3", 0, 3, []term{tALU}} // an int literal in a float operation
	xFltA = exactOperand{"gfa", 0, 7.5, []term{tLoad}}
	xFltB = exactOperand{"gfb", 0, 2.25, []term{tLoad}}
)

// intShapes and floatShapes pair operands in every shape of the
// generated closures: XX, XK, XL, LK, LL and LX; zeroShapes does so
// with a zero divisor.
var (
	intShapes   = [][2]exactOperand{{xIntA, xIntB}, {xIntA, kInt}, {xIntA, lIntB}, {lIntA, kInt}, {lIntA, lIntB}, {lIntA, xIntB}}
	floatShapes = [][2]exactOperand{{xFltA, xFltB}, {xFltA, kFlt}, {xFltA, lFltB}, {lFltA, kFInt}, {lFltA, lFltB}, {lFltA, xFltB}}
	zeroShapes  = [][2]exactOperand{{xIntA, xIntZ}, {xIntA, kZero}, {xIntA, lIntZ}, {lIntA, kZero}, {lIntA, lIntZ}, {lIntA, xIntZ}}
)

type intOpSpec struct {
	tok   string
	do    func(a, c int64) int64
	price term
}

var intOpsExact = []intOpSpec{
	{"+", func(a, c int64) int64 { return a + c }, tALU},
	{"-", func(a, c int64) int64 { return a - c }, tALU},
	{"*", func(a, c int64) int64 { return a * c }, tMul},
	{"/", func(a, c int64) int64 { return a / c }, tDiv},
	{"%", func(a, c int64) int64 { return a % c }, tDiv},
	{"<<", func(a, c int64) int64 { return a << uint(c&63) }, tALU},
	{">>", func(a, c int64) int64 { return a >> uint(c&63) }, tALU},
	{"&", func(a, c int64) int64 { return a & c }, tALU},
	{"|", func(a, c int64) int64 { return a | c }, tALU},
	{"^", func(a, c int64) int64 { return a ^ c }, tALU},
	{"<", func(a, c int64) int64 { return b2i(a < c) }, tALU},
	{">", func(a, c int64) int64 { return b2i(a > c) }, tALU},
	{"<=", func(a, c int64) int64 { return b2i(a <= c) }, tALU},
	{">=", func(a, c int64) int64 { return b2i(a >= c) }, tALU},
	{"==", func(a, c int64) int64 { return b2i(a == c) }, tALU},
	{"!=", func(a, c int64) int64 { return b2i(a != c) }, tALU},
}

type floatOpSpec struct {
	tok   string
	do    func(a, c float64) float64
	cmp   func(a, c float64) bool
	price term
}

var floatOpsExact = []floatOpSpec{
	{"+", func(a, c float64) float64 { return a + c }, nil, tFAdd},
	{"-", func(a, c float64) float64 { return a - c }, nil, tFAdd},
	{"*", func(a, c float64) float64 { return a * c }, nil, tFMul},
	{"/", func(a, c float64) float64 { return a / c }, nil, tFDiv},
	{"<", nil, func(a, c float64) bool { return a < c }, tFCmp},
	{">", nil, func(a, c float64) bool { return a > c }, tFCmp},
	{"<=", nil, func(a, c float64) bool { return a <= c }, tFCmp},
	{">=", nil, func(a, c float64) bool { return a >= c }, tFCmp},
	{"==", nil, func(a, c float64) bool { return a == c }, tFCmp},
	{"!=", nil, func(a, c float64) bool { return a != c }, tFCmp},
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// fltRet returns a float result scaled to an int; fixed is its value.
const fltRet = "(int)(fr * 1024.0)"

func fixed(f float64) int64 { return int64(f * 1024) }

// intTargets and floatTargets are the lvalues an update writes, with
// their start values and the charges of addressing them: a frame local,
// a[i] of a global array, a[i] of a local array, p[i] of a pointer local,
// *p, a[i][j] of a global and of a local array, and a field of a frame
// struct.
type exactTarget struct {
	src   string
	start int64
	f     float64
	terms []term
}

var (
	intTargets = []exactTarget{
		{src: "a", start: 23},
		{src: "arr[i]", start: 17, terms: []term{tALU, tLocal, tALU}},
		{src: "la[i]", start: 0, terms: []term{tALU, tLocal, tALU}},
		{src: "p[i]", start: 17, terms: []term{tLocal, tLocal, tALU}},
		{src: "(*p)", start: 11, terms: []term{tLocal}},
		{src: "mat[i][j]", start: 10, terms: []term{tALU, tLocal, tALU, tALU, tLocal, tALU}},
	}
	floatTargets = []exactTarget{
		{src: "fa", f: 7.5},
		{src: "s.y", f: 0, terms: []term{tALU}}, // unassigned: int 0
		{src: "fm[j][i]", f: 0, terms: []term{tALU, tLocal, tALU, tALU, tLocal, tALU}},
	}
)

func exactCases() []exactCase {
	var cs []exactCase
	for _, op := range intOpsExact {
		for _, sh := range intShapes {
			x, y := sh[0], sh[1]
			cs = append(cs, exactCase{
				stmt: fmt.Sprintf("r = %s %s %s;", x.src, op.tok, y.src), ret: "r",
				want: op.do(x.i, y.i), terms: ts(x.terms, y.terms, []term{op.price, tStore}),
			})
		}
	}
	for _, op := range []intOpSpec{intOpsExact[3], intOpsExact[4]} {
		fault := map[string]string{"/": "integer division by zero", "%": "integer modulo by zero"}[op.tok]
		for _, sh := range zeroShapes {
			x, y := sh[0], sh[1]
			cs = append(cs, exactCase{stmt: fmt.Sprintf("r = %s @%s %s;", x.src, op.tok, y.src), fault: fault})
			// A compound assignment faults without a position.
			if x.src == "a" {
				cs = append(cs, exactCase{stmt: fmt.Sprintf("a %s= %s;", op.tok, y.src), fault: fault})
			}
		}
	}
	for _, op := range floatOpsExact {
		for _, sh := range floatShapes {
			x, y := sh[0], sh[1]
			c := exactCase{stmt: fmt.Sprintf("fr = %s %s %s;", x.src, op.tok, y.src), ret: fltRet,
				terms: ts(x.terms, y.terms, []term{op.price, tStore})}
			if op.cmp != nil {
				c.stmt, c.ret, c.want = fmt.Sprintf("r = %s %s %s;", x.src, op.tok, y.src), "r", b2i(op.cmp(x.f, y.f))
			} else {
				c.want = fixed(op.do(x.f, y.f))
			}
			cs = append(cs, c)
		}
	}
	// Float division by zero yields an infinity of the dividend's sign.
	cs = append(cs,
		exactCase{stmt: "fr = fa / 0.0;", ret: "fr > 1000000.0", want: 1, terms: []term{tLocal, tALU, tFDiv, tStore}},
		exactCase{stmt: "fr = (0.0 - fa) / gz;", ret: "fr < 0.0 - 1000000.0", want: 1,
			terms: []term{tALU, tLocal, tFAdd, tLoad, tFDiv, tStore}})

	// Compound assignments in every right-operand shape (L, K, X) on
	// every kind of target, and ++/-- before and after.
	for _, op := range intOpsExact[:10] {
		for _, t := range intTargets {
			for _, y := range []exactOperand{lIntB, kInt, xIntB} {
				cs = append(cs, exactCase{stmt: fmt.Sprintf("%s %s= %s;", t.src, op.tok, y.src), ret: t.src,
					want: op.do(t.start, y.i), terms: ts(t.terms, []term{tLoad}, y.terms, []term{op.price, tStore})})
			}
		}
	}
	for _, op := range floatOpsExact[:4] {
		for _, t := range floatTargets {
			for _, y := range []exactOperand{lFltB, kFlt, xFltB} {
				cs = append(cs, exactCase{stmt: fmt.Sprintf("%s %s= %s;", t.src, op.tok, y.src), ret: "(int)(" + t.src + " * 1024.0)",
					want: fixed(op.do(t.f, y.f)), terms: ts(t.terms, []term{tLoad}, y.terms, []term{op.price, tStore})})
			}
		}
	}
	for _, t := range intTargets {
		for _, form := range []struct {
			src   string
			delta int64
			post  bool
		}{{"%s++", 1, true}, {"%s--", -1, true}, {"++%s", 1, false}, {"--%s", -1, false}} {
			want := t.start + form.delta
			if form.post {
				want = t.start
			}
			cs = append(cs, exactCase{stmt: "r = " + fmt.Sprintf(form.src, t.src) + ";", ret: "r * 1000 + " + t.src,
				want: want*1000 + t.start + form.delta, terms: ts(t.terms, []term{tLoad, tALU, tStore, tStore})})
		}
	}
	cs = append(cs,
		exactCase{stmt: "fa++;", ret: "(int)(fa * 1024.0)", want: fixed(8.5), terms: []term{tLoad, tFAdd, tStore}},
		exactCase{stmt: "--fa;", ret: "(int)(fa * 1024.0)", want: fixed(6.5), terms: []term{tLoad, tFAdd, tStore}},
		exactCase{stmt: "p++;", ret: "*p", want: 13, terms: []term{tLoad, tALU, tStore}})

	// Operands whose dynamic kind is not their static type: an unassigned
	// float struct field holds int 0, in shape L (s.x) and X (gs.x), and
	// an unassigned pointer local is int 0 too.
	cs = append(cs,
		exactCase{stmt: "fr = s.x + fb;", ret: fltRet, want: fixed(2.25), terms: []term{tALU, tLoad, tLocal, tFAdd, tStore}},
		exactCase{stmt: "fr = s.x + s.y;", ret: fltRet, want: 0, terms: []term{tALU, tLoad, tALU, tLoad, tALU, tStore}},
		exactCase{stmt: "fr = s.x * 2.5;", ret: fltRet, want: 0, terms: []term{tALU, tLoad, tALU, tFMul, tStore}},
		exactCase{stmt: "r = s.x < 1;", ret: "r", want: 1, terms: []term{tALU, tLoad, tALU, tALU, tStore}},
		exactCase{stmt: "r = s.x == s.y;", ret: "r", want: 1, terms: []term{tALU, tLoad, tALU, tLoad, tALU, tStore}},
		exactCase{stmt: "fr = gs.x - gs.y;", ret: fltRet, want: 0, terms: []term{tALU, tLoad, tALU, tLoad, tALU, tStore}},
		exactCase{stmt: "fr = gs.x / gfb;", ret: fltRet, want: 0, terms: []term{tALU, tLoad, tLoad, tFDiv, tStore}},
		exactCase{stmt: "fr = 0.0 - s.x;", ret: fltRet, want: 0, terms: []term{tALU, tALU, tLoad, tFAdd, tStore}},
		exactCase{stmt: "fr = -s.x;", ret: fltRet, want: 0, terms: []term{tALU, tLoad, tALU, tStore}},
		exactCase{stmt: "fr = -fa;", ret: fltRet, want: fixed(-7.5), terms: []term{tLocal, tFAdd, tStore}},
		exactCase{stmt: "s.x += 1;", ret: "(int)(s.x * 1024.0)", want: fixed(1), terms: []term{tALU, tLoad, tALU, tALU, tStore}},
		exactCase{stmt: "s.x++;", ret: "(int)(s.x * 1024.0)", want: fixed(1), terms: []term{tALU, tLoad, tALU, tStore}},
		exactCase{stmt: "r = mat[i][j] + 1;", ret: "r", want: 11,
			terms: []term{tALU, tLocal, tALU, tALU, tLocal, tALU, tLoad, tALU, tALU, tStore}},
		exactCase{stmt: "fr = fm[j][i] - fb;", ret: fltRet, want: fixed(-2.25),
			terms: []term{tALU, tLocal, tALU, tALU, tLocal, tALU, tLoad, tLocal, tFAdd, tStore}},
		exactCase{stmt: "r = np == 0;", ret: "r", want: 1, terms: []term{tLocal, tALU, tALU, tStore}},
		exactCase{stmt: "r = np != p;", ret: "r", want: 1, terms: []term{tLocal, tLocal, tALU, tStore}},
		exactCase{stmt: "r = p < p + 1;", ret: "r", want: 1, terms: []term{tLocal, tLocal, tALU, tALU, tALU, tStore}},
		exactCase{stmt: "r = p @>= la;", fault: "relational comparison of unrelated pointers"},
		exactCase{stmt: "r = np@[i];", fault: "indexing a non-pointer value"},
		exactCase{stmt: "np@[i] = 1;", fault: "indexing a non-pointer value"},
		exactCase{stmt: "np@[i] += 1;", fault: "indexing a non-pointer value"},
		exactCase{stmt: "r = @*np;", fault: "dereference of non-pointer value"},
		exactCase{stmt: "r = arr@[a];", fault: "out-of-bounds access: globals[30] (size 23)"},
		exactCase{stmt: "arr[a] @= 1;", fault: "out-of-bounds store: globals[30] (size 23)"},
		exactCase{stmt: "arr[a] @+= 1;", fault: "out-of-bounds access: globals[30] (size 23)"},
		exactCase{stmt: "r = p@[a];", fault: "out-of-bounds access: globals[30] (size 23)"},
		exactCase{stmt: "r = mat[a]@[j];", fault: "out-of-bounds access: globals[104] (size 23)"},
		exactCase{stmt: "mat[j][a] @= 1;", fault: "out-of-bounds store: globals[38] (size 23)"},
		exactCase{stmt: "r = la@[a];", fault: "out-of-bounds access: main[32] (size 23)"},
		exactCase{stmt: "la[a * 2] @= 1;", fault: "out-of-bounds store: main[55] (size 23)"},
	)

	// A sum of 1500 locals: its price outgrows what one statement may
	// fold, so the inner nodes pay in place, with the same totals.
	long := ts()
	for range 1500 {
		long = append(long, tLocal, tALU)
	}
	cs = append(cs, exactCase{stmt: "r = b" + strings.Repeat(" + b", 1499) + ";", ret: "r", want: 7500,
		terms: append(long[:len(long)-1], tStore)})

	// A call in an operand makes every piece pay where it runs.
	call := []term{tALU, tCall, tALU, tRet}
	cs = append(cs,
		exactCase{stmt: "r = two() + b;", ret: "r", want: 7, terms: ts(call, []term{tLocal, tALU, tStore})},
		exactCase{stmt: "r = a - two() * 3;", ret: "r", want: 17, terms: ts([]term{tLocal}, call, []term{tALU, tMul, tALU, tStore})},
		exactCase{stmt: "fr = fa * two();", ret: fltRet, want: fixed(15), terms: ts([]term{tLocal}, call, []term{tFMul, tStore})},
		exactCase{stmt: "a += two();", ret: "a", want: 25, terms: ts([]term{tLoad}, call, []term{tALU, tStore})},
		exactCase{stmt: "arr[two()] *= b;", ret: "arr[2]", want: 85, terms: ts([]term{tALU}, call, []term{tALU, tLoad, tLocal, tMul, tStore})},
		exactCase{stmt: "r = b > 1 && two() > 1;", ret: "r", want: 1, terms: ts([]term{tBranch, tLocal, tALU, tALU}, call, []term{tALU, tALU, tStore})},
		exactCase{stmt: "r = b > 9 ? two() : a;", ret: "r", want: 23, terms: []term{tBranch, tLocal, tALU, tALU, tLocal, tStore}},
	)
	return cs
}

func TestSpecializedExact(t *testing.T) {
	for _, m := range []*cost.Model{cost.O0(), cost.O3()} {
		for _, c := range exactCases() {
			name := c.stmt
			if len(name) > 48 {
				name = name[:48] + "..."
			}
			t.Run(m.Name+"/"+name, func(t *testing.T) {
				col := strings.Index(c.stmt, "@") + 5 // after the four-space indent
				stmt := strings.Replace(c.stmt, "@", "", 1)
				ret := c.ret
				if ret == "" {
					ret = "0"
				}
				src := exactPrelude + "    %s\n    return " + ret + ";\n}\n"
				res, err := Run(compile(t, fmt.Sprintf(src, stmt)), Options{Model: m})
				if c.fault != "" {
					want := "runtime error: " + c.fault
					if strings.Contains(c.stmt, "@") {
						want = fmt.Sprintf("runtime error at %d:%d: %s", exactLine, col, c.fault)
					}
					if err == nil || err.Error() != want {
						t.Fatalf("err = %v, want %s", err, want)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				base, err := Run(compile(t, fmt.Sprintf(src, ";")), Options{Model: m})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ret != c.want {
					t.Errorf("value %d, want %d", res.Ret, c.want)
				}
				cycles, ops := sum(m, c.terms)
				gotOps := res.Ops
				gotOps.sub(base.Ops)
				if got := res.Cycles - base.Cycles; got != cycles || gotOps != ops {
					t.Errorf("charged %d cycles, ops %+v\n want %d cycles, ops %+v", got, gotOps, cycles, ops)
				}
			})
		}
	}
}
