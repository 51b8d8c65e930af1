package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if xs[0] != 10 {
		t.Fatal("quartiles reordered its input")
	}
}

func TestQuantileClampsAndInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 2.5}, {0.99, 4}, {1, 4},
	} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
		ok   bool
	}{
		{999, 0.99, 9, false},
		{1000, 0.99, 10, true},
		{100000, 0.99, 1000, true},
		{63, 0.99, 0, false},
		{63, 0.5, 31, true},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

var sinkU64 uint64

func TestCPUTimeCountsBusyWork(t *testing.T) {
	before := cpuTime()
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		sinkU64 = spin(sinkU64, 1000)
	}
	if used := cpuTime() - before; used < 25*time.Millisecond {
		t.Fatalf("50 ms of spinning used %v of CPU", used)
	}
}

var sinkBytes []byte

func TestPeakRSSTracksTouchedMemory(t *testing.T) {
	before := peakRSSMB()
	sinkBytes = make([]byte, 64<<20)
	for i := 0; i < len(sinkBytes); i += 4096 {
		sinkBytes[i] = 1
	}
	if grew := peakRSSMB() - before; grew < 32 {
		t.Fatalf("touching 64 MiB raised peak RSS by %.1f MiB", grew)
	}
	sinkBytes = nil
}

func TestMixBands(t *testing.T) {
	bands := []band{{"l1_hit", 0.7, 0.8}, {"bypassed", 0, 0}, {"compute", 0.01, 0.1}}
	if bad := outside(map[string]float64{"l1_hit": 0.75, "bypassed": 0, "compute": 0.05}, bands); len(bad) != 0 {
		t.Fatalf("in-band mix flagged: %v", bad)
	}
	bad := outside(map[string]float64{"l1_hit": 0.81, "bypassed": 0.001}, bands)
	if len(bad) != 3 || bad[0] != "l1_hit" || bad[1] != "bypassed" || bad[2] != "compute" {
		t.Fatalf("outside = %v, want [l1_hit bypassed compute]", bad)
	}
}

func TestWindowRates(t *testing.T) {
	cpu := []time.Duration{0, 2 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	opsS, cpuUS := windowRates([]int64{1000, 0, 500}, cpu, time.Second)
	if len(opsS) != 2 || opsS[0] != 1000 || opsS[1] != 500 {
		t.Fatalf("opsS = %v, want [1000 500]", opsS)
	}
	if cpuUS[0] != 2 || cpuUS[1] != 6 {
		t.Fatalf("cpuUS = %v, want [2 6]", cpuUS)
	}
}

func TestJumpMatchesSpin(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1023, 1024, 4097, readSteps, depSteps} {
		for _, x := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
			if got, want := jump(x, n), spin(x, n); got != want {
				t.Fatalf("jump(%#x, %d) = %#x, spin = %#x", x, n, got, want)
			}
		}
	}
}

func TestSelfTimeAndResidual(t *testing.T) {
	ms := time.Millisecond
	// Op 1: root 0–10 ms with children 1–4 and 5–9 ms; op 2: a bare
	// root of 2 ms. The root's self time is the residual.
	spans := []span{
		{name: "do", op: 1, parent: -1, start: 0, end: 10 * ms},
		{name: "get", op: 1, parent: 0, start: 1 * ms, end: 4 * ms},
		{name: "compute", op: 1, parent: 0, start: 5 * ms, end: 9 * ms},
		{name: "do", op: 2, parent: -1, start: 20 * ms, end: 22 * ms},
	}
	lt := layerTotals{}
	lt.add(spans)
	if do := lt.get("do"); do.count != 2 || do.total != 12*ms || do.self != 5*ms {
		t.Fatalf("do = %+v, want 2 spans, 12 ms total, 5 ms self", do)
	}
	if got := lt.selfPer(2, ms, "do"); got != 2.5 {
		t.Fatalf("residual per op = %v ms, want 2.5", got)
	}
	if got := lt.meanTotal("get", ms); got != 3 {
		t.Fatalf("mean get = %v ms, want 3", got)
	}
	if got := lt.selfSum(); got != 12*ms {
		t.Fatalf("self times sum to %v, want the roots' 12 ms", got)
	}
	if got := lt.meanTotal("missing", ms); got != 0 {
		t.Fatalf("missing layer = %v, want 0", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder(8)
	root := r.root("do")
	child := r.begin("lookup", root)
	r.end(child)
	r.end(root)
	r.rename(root, "do.hit")
	if len(r.spans) != 2 || r.spans[1].parent != root || r.spans[0].name != "do.hit" || r.spans[1].op != 1 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if !r.full(7) || r.full(6) {
		t.Fatal("full() disagrees with the limit")
	}
	lt := layerTotals{}
	lt.add(r.spans)
	if do := lt.get("do.hit"); do.self < 0 || do.self > do.total {
		t.Fatalf("self time %v outside [0, %v]", do.self, do.total)
	}
}

func TestTraceCost(t *testing.T) {
	r := newResult()
	r.addTraceCost(1000, 800, 10*time.Microsecond, 11*time.Microsecond, 100)
	if got := r.metrics["trace.overhead_pct"].value; math.Abs(got-20) > 1e-9 {
		t.Fatalf("overhead = %v%%, want 20", got)
	}
	if got := r.metrics["trace.coverage"].value; math.Abs(got-1.1) > 1e-9 {
		t.Fatalf("coverage = %v, want 1.1", got)
	}
}
