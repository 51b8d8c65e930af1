package statreuse

import (
	"reflect"
	"testing"

	"compreuse/internal/callgraph"
	"compreuse/internal/dataflow"
	"compreuse/internal/minic"
	"compreuse/internal/pointer"
	"compreuse/internal/segment"
)

// estimates analyzes src and returns the estimate of every eligible
// segment.
func estimates(t *testing.T, src string) map[string]Estimate {
	t.Helper()
	prog, err := minic.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	pts := pointer.Analyze(prog)
	cg := callgraph.Build(prog, pts)
	eff := dataflow.ComputeEffects(prog, pts, cg)
	return EstimateAll(segment.Analyze(prog, pts, cg, eff, segment.Options{}))
}

// TestEstimateClasses gives one minimal program per rule class and pins
// the class, R̂ and the streaming inputs of the segment the rule decides.
func TestEstimateClasses(t *testing.T) {
	cases := []struct {
		name, src, seg string
		want           Estimate
	}{
		{
			// state advances by a recurrence seeded once in main: its
			// value never repeats, so neither does next's key.
			name: "streaming",
			src: `
int state;
int next(void) { int r; r = state * 3 + state / 5; return r; }
int main(void) {
    int i; int s = 0;
    state = 7;
    for (i = 0; i < 50; i++) { state = state * 1103 + 12345; s = s + next(); }
    return s;
}`,
			seg:  "next@func",
			want: Estimate{R: 0, Class: "streaming", Streaming: []string{"state"}},
		},
		{
			// The recurrence is masked into 8 values: x cycles, it does
			// not stream.
			name: "masked-recurrence",
			src: `
int x;
int sq(void) { int r; r = x * x + x; return r; }
int main(void) {
    int i; int s = 0;
    x = 0;
    for (i = 0; i < 50; i++) { x = (x + 1) & 7; s = s + sq(); }
    return s;
}`,
			seg:  "sq@func",
			want: Estimate{R: RBounded, Class: "bounded"},
		},
		{
			name: "bounded",
			src: `
int f(int v) { int r; r = v * v * 3 + v; return r; }
int main(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) s = s + f(i % 7);
    return s;
}`,
			seg:  "f@func",
			want: Estimate{R: RBounded, Class: "bounded"},
		},
		{
			// The body advances its own parameter (a range-reduction
			// loop), so only whole calls repeat.
			name: "param-recurrent",
			src: `
int reduce(int v) {
    int r;
    while (v > 100) v = v - 100;
    r = v * 3;
    return r;
}
int main(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) s = s + reduce(i * 37);
    return s;
}`,
			seg:  "reduce@func",
			want: Estimate{R: RParamRec, Class: "param-recurrent"},
		},
		{
			name: "aggregate",
			src: `
int blk[4];
int sum(void) { int r; r = blk[0] + blk[1] * 2 + blk[2] * 3 + blk[3] * 4; return r; }
int main(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) { blk[i & 3] = i & 7; s = s + sum(); }
    return s;
}`,
			seg:  "sum@func",
			want: Estimate{R: RAggregate, Class: "aggregate"},
		},
		{
			name: "element",
			src: `
int tab[16];
int out[16];
int main(int n) {
    int i;
    for (i = 0; i < 16; i++) tab[i] = n + 3;
    for (i = 0; i < 16; i++) out[i] = tab[i] * tab[i] / 3 + tab[i] % 5;
    return out[3];
}`,
			seg:  "main@loop2",
			want: Estimate{R: RElement, Class: "element"},
		},
		{
			name: "scalar-int",
			src: `
int f(int v) { int r; r = v * v * 3 + v / 7; return r; }
int main(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) s = s + f(n - i);
    return s;
}`,
			seg:  "f@func",
			want: Estimate{R: RScalarInt, Class: "scalar-int"},
		},
		{
			name: "scalar-float",
			src: `
float g(float v) { float r; r = v * v * 3.0 + v / 7.0; return r; }
int main(int n) {
    int i; float s = 0.0;
    for (i = 0; i < n; i++) s = s + g(n - i);
    return s;
}`,
			seg:  "g@func",
			want: Estimate{R: RScalarFloat, Class: "scalar-float"},
		},
		{
			name: "float-multi",
			src: `
float h(float a, float b) { float r; r = a * b * 3.0 + a / 7.0 - b; return r; }
int main(int n) {
    int i; float s = 0.0;
    for (i = 0; i < n; i++) s = s + h(n - i, i * 0.5);
    return s;
}`,
			seg:  "h@func",
			want: Estimate{R: RFloatMulti, Class: "float-multi"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			all := estimates(t, tc.src)
			got, ok := all[tc.seg]
			if !ok {
				t.Fatalf("no eligible segment %s; have %v", tc.seg, all)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s: got %+v, want %+v", tc.seg, got, tc.want)
			}
		})
	}
}
