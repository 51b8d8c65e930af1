package depmemo

import "testing"

// TestRecordKnownPathZeroAlloc pins a census's repeat sighting: recording
// a path the trie already holds walks it without allocating, in profile
// mode and in a bounded reuse table alike.
func TestRecordKnownPathZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{{Name: "census", Profile: true}, {Name: "bounded", Entries: 4}} {
		tab := New(cfg)
		var paths [3][]Step
		for p := range paths {
			for k := 0; k < 110; k++ {
				paths[p] = append(paths[p], Step{Loc: Loc{Input: int32(k % 3), Off: int32(k)}, Label: uint64(k*p) & 7})
			}
			tab.Record(paths[p], []uint64{uint64(p)})
		}
		outs := []uint64{9}
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			tab.Record(paths[i%3], outs)
			i++
		}); n != 0 {
			t.Errorf("%s: Record of a known path: %v allocs, want 0", cfg.Name, n)
		}
		if st := tab.Stats(); st.Distinct != 3 {
			t.Errorf("%s: %d distinct paths, want 3", cfg.Name, st.Distinct)
		}
	}
}
