package profile

import (
	"strings"
	"testing"

	"compreuse/internal/callgraph"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/pointer"
	"compreuse/internal/reusetab"
	"compreuse/internal/segment"
)

const quanProg = `
int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}
int main(void) {
    int s = 0;
    int v;
    for (v = 0; v < 1000; v++)
        s += quan(v & 127);
    return s;
}
`

func prepQuan(t *testing.T) (*minic.Program, *segment.Analysis) {
	t.Helper()
	prog, err := minic.Parse("q.c", quanProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	pts := pointer.Analyze(prog)
	cg := callgraph.Build(prog, pts)
	eff := dataflow.ComputeEffects(prog, pts, cg)
	return prog, segment.Analyze(prog, pts, cg, eff, segment.Options{})
}

func TestCollectQuan(t *testing.T) {
	prog, an := prepQuan(t)
	var cands []*segment.Segment
	for _, s := range an.Segments {
		if s.Name == "quan@func" {
			cands = append(cands, s)
		}
	}
	profiles, _, err := Collect(prog, cands, cost.O0(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := profiles["quan@func"]
	if sp == nil {
		t.Fatal("no profile for quan@func")
	}
	if sp.N != 1000 {
		t.Fatalf("N = %d, want 1000", sp.N)
	}
	if sp.Nds != 128 {
		t.Fatalf("Nds = %d, want 128", sp.Nds)
	}
	r := sp.ReuseRate()
	if r < 0.87 || r > 0.88 {
		t.Fatalf("R = %v, want 0.872", r)
	}
	if sp.MeasuredC <= 0 || sp.Overhead <= 0 {
		t.Fatalf("C=%v O=%v", sp.MeasuredC, sp.Overhead)
	}
	if sp.MeasuredC <= sp.Overhead {
		t.Fatalf("quan's C (%v) should exceed O (%v)", sp.MeasuredC, sp.Overhead)
	}
	if !sp.CostProfile().Profitable() {
		t.Fatal("quan must be profitable at R=0.872")
	}
}

func TestFrequencyFilter(t *testing.T) {
	_, an := prepQuan(t)
	freq := make([]int64, 100000)
	var quanSeg *segment.Segment
	for _, s := range an.Segments {
		if s.Name == "quan@func" {
			quanSeg = s
		}
	}
	freq[quanSeg.FreqID] = 1000
	kept := FrequencyFilter([]*segment.Segment{quanSeg}, freq, 8)
	if len(kept) != 1 {
		t.Fatal("frequent segment filtered out")
	}
	freq[quanSeg.FreqID] = 3
	kept = FrequencyFilter([]*segment.Segment{quanSeg}, freq, 8)
	if len(kept) != 0 {
		t.Fatal("infrequent segment kept")
	}
}

func TestValueHistogram(t *testing.T) {
	census := []reusetab.KeyCount{
		{Key: string(reusetab.AppendInt(nil, 0)), Count: 10, Rank: 0},
		{Key: string(reusetab.AppendInt(nil, 5)), Count: 20, Rank: 1},
		{Key: string(reusetab.AppendInt(nil, 95)), Count: 5, Rank: 2},
	}
	h := ValueHistogram(census, 10)
	if len(h) != 10 {
		t.Fatalf("buckets = %d", len(h))
	}
	if h[0].Count != 30 || h[0].Distinct != 2 {
		t.Fatalf("bucket 0: %+v", h[0])
	}
	if h[9].Count != 5 || h[9].Distinct != 1 {
		t.Fatalf("bucket 9: %+v", h[9])
	}
	total := int64(0)
	for _, b := range h {
		total += b.Count
	}
	if total != 35 {
		t.Fatalf("histogram total %d, want 35", total)
	}
}

func TestValueHistogramNegativeValues(t *testing.T) {
	census := []reusetab.KeyCount{
		{Key: string(reusetab.AppendInt(nil, -50)), Count: 1},
		{Key: string(reusetab.AppendInt(nil, 50)), Count: 1},
	}
	h := ValueHistogram(census, 4)
	if h == nil {
		t.Fatal("nil histogram")
	}
	if h[0].Lo != -50 {
		t.Fatalf("first bucket lo = %d", h[0].Lo)
	}
}

func TestRankHistogram(t *testing.T) {
	access := []int64{100, 50, 25, 10, 5, 0, 0, 1}
	h := RankHistogram(access, 4)
	if len(h) != 4 {
		t.Fatalf("buckets = %d", len(h))
	}
	if h[0].Count != 150 || h[0].Distinct != 2 {
		t.Fatalf("bucket 0: %+v", h[0])
	}
	if h[3].Count != 1 || h[3].Distinct != 1 {
		t.Fatalf("bucket 3: %+v", h[3])
	}
}

func TestValueHistogramBadKeys(t *testing.T) {
	census := []reusetab.KeyCount{{Key: "abc", Count: 1}} // 3 bytes: not ints
	if h := ValueHistogram(census, 4); h != nil {
		t.Fatal("expected nil for undecodable keys")
	}
}

func TestCollisionDeduction(t *testing.T) {
	// Keys 3 and 11 collide modulo 8; key 3 runs 10 times, key 11 runs 4
	// times, key 5 runs 6 times alone. The dominant key per slot is kept:
	// deduction = 4 / 20.
	census := []reusetab.KeyCount{
		{Key: string(reusetab.AppendInt(nil, 3)), Count: 10},
		{Key: string(reusetab.AppendInt(nil, 11)), Count: 4},
		{Key: string(reusetab.AppendInt(nil, 5)), Count: 6},
	}
	got := CollisionDeduction(census, 8)
	if got != 0.2 {
		t.Fatalf("deduction = %v, want 0.2", got)
	}
	// A table with no congruent keys has no deduction.
	if d := CollisionDeduction(census, 16); d != 0 {
		t.Fatalf("deduction at 16 entries = %v, want 0", d)
	}
	// Degenerate inputs.
	if CollisionDeduction(nil, 8) != 0 || CollisionDeduction(census, 0) != 0 {
		t.Fatal("degenerate cases must be 0")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	sp := &SegProfile{
		Name: "k@func", TableName: "k@func", N: 100, Nds: 7,
		MeasuredC: 333.5, Overhead: 45, KeyBytes: 4,
		Census: []reusetab.KeyCount{
			{Key: string(reusetab.AppendInt(nil, 5)), Count: 60, Rank: 0},
			{Key: string(reusetab.AppendInt(nil, -9)), Count: 40, Rank: 1},
		},
	}
	snap := ToSnapshot("p.c", "O0", []int64{1, 2}, []int64{0, 3, 0}, map[string]*SegProfile{"k@func": sp})

	var buf strings.Builder
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != "p.c" || back.OptLevel != "O0" || len(back.Freq) != 3 || back.Freq[1] != 3 {
		t.Fatalf("header lost: %+v", back)
	}
	got := back.Profiles()["k@func"]
	if got == nil || got.N != 100 || got.Nds != 7 || got.MeasuredC != 333.5 {
		t.Fatalf("profile lost: %+v", got)
	}
	if len(got.Census) != 2 || got.Census[0].Count != 60 {
		t.Fatalf("census lost: %+v", got.Census)
	}
	vals, ok := reusetab.DecodeIntsInto(nil, got.Census[1].Key)
	if !ok || vals[0] != -9 {
		t.Fatalf("binary key corrupted: %v", vals)
	}
	if got.ReuseRate() != sp.ReuseRate() {
		t.Fatal("derived quantities differ")
	}
}

func TestSnapshotBadInput(t *testing.T) {
	if _, err := LoadSnapshot(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
	s, err := LoadSnapshot(strings.NewReader("{}"))
	if err != nil || s.Segments == nil {
		t.Fatalf("empty snapshot must normalize: %v %v", s, err)
	}
	bad := `{"segments": {"x": {"census": [{"key": "zz", "count": 1, "rank": 0}]}}}`
	if _, err := LoadSnapshot(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "zz") {
		t.Fatalf("expected hex error naming the key, got %v", err)
	}
	null := `{"segments": {"a": null}}`
	if _, err := LoadSnapshot(strings.NewReader(null)); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("expected null-segment error naming the segment, got %v", err)
	}
}
