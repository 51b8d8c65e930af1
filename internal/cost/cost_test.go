package cost

import (
	"math"
	"testing"
	"testing/quick"

	"compreuse/internal/minic"
)

func TestReuseRate(t *testing.T) {
	// G721_encode from the paper: 1612942 calls, 9155 distinct inputs.
	p := Profile{N: 1612942, Nds: 9155}
	r := p.ReuseRate()
	if r < 0.994 || r > 0.995 {
		t.Fatalf("R = %v, want ~0.9943", r)
	}
}

func TestFormulasConsistent(t *testing.T) {
	// Gain (formula 2) must equal C minus formula (1)'s new cost,
	// (C+O)·(1−R) + O·R, identically.
	f := func(c, o float64, n, nds uint16) bool {
		if n == 0 || nds > n {
			return true
		}
		p := Profile{
			C: math.Abs(math.Mod(c, 1e9)), O: math.Abs(math.Mod(o, 1e9)),
			N: int64(n), Nds: int64(nds),
		}
		r := p.ReuseRate()
		lhs := p.C - ((p.C+p.O)*(1-r) + p.O*r)
		rhs := p.Gain()
		return math.Abs(lhs-rhs) < 1e-6*(1+p.C+p.O)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfitableThreshold(t *testing.T) {
	// R > O/C exactly at the boundary of formula (3).
	p := Profile{C: 100, O: 10, N: 100, Nds: 90} // R = 0.1 = O/C
	if p.Profitable() {
		t.Fatal("boundary case must not be profitable (strict >)")
	}
	p.Nds = 89 // R = 0.11 > 0.1
	if !p.Profitable() {
		t.Fatal("R just above O/C must be profitable")
	}
}

func TestRatioFilter(t *testing.T) {
	if (Profile{C: 10, O: 10}).RatioOK() {
		t.Fatal("O/C == 1 must fail the filter")
	}
	if !(Profile{C: 10, O: 9.99}).RatioOK() {
		t.Fatal("O/C < 1 must pass the filter")
	}
	if (Profile{C: 0, O: 1}).RatioOK() {
		t.Fatal("zero-granularity segment must fail the filter")
	}
}

func TestHashOverheadMonotone(t *testing.T) {
	m := O0()
	// Overhead grows with key and output size.
	o1 := m.HashOverhead(4, 4)
	o2 := m.HashOverhead(4, 64)
	o3 := m.HashOverhead(256, 64)
	if !(o1 < o2 && o2 < o3) {
		t.Fatalf("overhead not monotone: %d %d %d", o1, o2, o3)
	}
	// The 32-bit fast path must beat Jenkins for the same payload.
	if m.HashOverhead(4, 4) >= m.HashOverhead(8, 4) {
		t.Fatal("wide keys must cost more than narrow keys")
	}
}

func TestHashOverheadO3Cheaper(t *testing.T) {
	if O3().HashOverhead(256, 256) >= O0().HashOverhead(256, 256) {
		t.Fatal("O3 hashing must be cheaper than O0")
	}
}

func TestSecondsMicros(t *testing.T) {
	if got := Seconds(206e6); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("206M cycles = %v s, want 1", got)
	}
}

func mustProg(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestConstTripCount(t *testing.T) {
	cases := []struct {
		src   string
		want  int64
		known bool
	}{
		{"int f(void){int s=0; for(int i=0;i<15;i++) s+=i; return s;}", 15, true},
		{"int f(void){int s=0; for(int i=0;i<=15;i++) s+=i; return s;}", 16, true},
		{"int f(void){int s=0; for(int i=2;i<10;i+=3) s+=i; return s;}", 3, true},
		{"int f(void){int s=0; int i; for(i=0;i<8;i++) s+=i; return s;}", 8, true},
		{"int f(int n){int s=0; for(int i=0;i<n;i++) s+=i; return s;}", 0, false},
		{"int f(void){int s=0; for(int i=0;i<8;i++) i+=s; return s;}", 0, false}, // i written in body
		{"int f(void){int s=0; for(int i=8;i<3;i++) s+=i; return s;}", 0, true},  // empty range
	}
	for _, c := range cases {
		prog := mustProg(t, c.src)
		var fs *minic.ForStmt
		minic.InspectStmts(prog.Func("f").Body, func(s minic.Stmt) bool {
			if f, ok := s.(*minic.ForStmt); ok && fs == nil {
				fs = f
			}
			return true
		})
		n, ok := ConstTripCount(fs)
		if ok != c.known || (ok && n != c.want) {
			t.Errorf("%s: got (%d,%v), want (%d,%v)", c.src, n, ok, c.want, c.known)
		}
	}
}

func TestStaticQuanGranularity(t *testing.T) {
	prog := mustProg(t, `
int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}`)
	est := NewStatic(O0())
	fn := prog.Func("quan")
	maxC := est.MaxCycles(fn.Body)
	minC := est.MinCycles(fn.Body)
	if minC <= 0 || maxC < minC {
		t.Fatalf("bounds: min=%d max=%d", minC, maxC)
	}
	// Optimistic estimate expands the 15-iteration loop; it must comfortably
	// exceed the hashing overhead of a 4-byte-in, 4-byte-out table so quan
	// passes the O/C filter (the paper transforms quan).
	o := O0().HashOverhead(4, 4)
	if maxC <= o {
		t.Fatalf("quan fails O/C filter: C=%d O=%d", maxC, o)
	}
	// The breakable loop forces the pessimistic bound down to ~1 iteration.
	if minC >= maxC/3 {
		t.Fatalf("pessimistic bound too high: min=%d max=%d", minC, maxC)
	}
}

func TestStaticFloatCostsDominates(t *testing.T) {
	prog := mustProg(t, `
float fsum(float a, float b) { return a * b + a / b; }
int isum(int a, int b) { return a * b + a / b; }`)
	est := NewStatic(O0())
	fc := est.MaxCycles(prog.Func("fsum").Body)
	ic := est.MaxCycles(prog.Func("isum").Body)
	if fc <= ic*3 {
		t.Fatalf("soft-float must dominate: float=%d int=%d", fc, ic)
	}
}

func TestStaticCallCost(t *testing.T) {
	prog := mustProg(t, `
int leaf(int x) { return x + 1; }
int caller(int x) { return leaf(x) + leaf(x); }
int rec(int x) { if (x <= 0) return 0; return rec(x - 1); }`)
	est := NewStatic(O0())
	leaf := est.FuncCycles(prog.Func("leaf"), true)
	caller := est.FuncCycles(prog.Func("caller"), true)
	if caller <= 2*leaf {
		t.Fatalf("caller (%d) must cost more than 2 leaves (%d)", caller, 2*leaf)
	}
	// Recursion terminates and produces a positive finite estimate.
	if rc := est.FuncCycles(prog.Func("rec"), true); rc <= 0 {
		t.Fatalf("recursive estimate: %d", rc)
	}
}

func TestStaticO3CheaperThanO0(t *testing.T) {
	prog := mustProg(t, `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < 100; i++)
        s += i * 3;
    return s;
}`)
	o0 := NewStatic(O0()).MaxCycles(prog.Func("f").Body)
	o3 := NewStatic(O3()).MaxCycles(prog.Func("f").Body)
	if o3 >= o0 {
		t.Fatalf("O3 (%d) must be cheaper than O0 (%d)", o3, o0)
	}
}
