package compreuse

import (
	"testing"
)

// The dependence-tracked probe walks the footprint trie instead of
// hashing a flat key, so its overhead model (cost.Model.DepOverhead) has
// no per-byte term — but that economics only holds if the warm hit path
// allocates nothing. These tests pin it, including the no-copy content
// keys for slice inputs.

func TestDepMemoHitZeroAlloc(t *testing.T) {
	m := NewDepMemo(DepConfig{Name: "alloc-dep"})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)) * uint64(d.Get(1)) }
	var in DepInputs
	for i := int64(0); i < 64; i++ {
		m.Do(in.Reset().Int(i).Int(i+1), f)
	}
	i := int64(0)
	assertZeroAllocs(t, "depmemo/hit", func() {
		k := i & 63
		if got := m.Do(in.Reset().Int(k).Int(k+1), f); got != uint64(k)*uint64(k+1) {
			t.Fatalf("Do(%d) = %d", k, got)
		}
		i++
	})
}

// TestDepMemoSliceKeyZeroAlloc pins the no-copy content key: probing
// with a large byte slice and a large word slice hashes both in place —
// no per-call copy, no allocation, however big the inputs.
func TestDepMemoSliceKeyZeroAlloc(t *testing.T) {
	m := NewDepMemo(DepConfig{Name: "alloc-dep-slice"})
	f := func(d *Dep) uint64 {
		b := d.Bytes(0)
		w := d.Slice(1)
		return uint64(b[0]) + w[0]
	}
	big := make([]byte, 1<<16)
	words := make([]uint64, 1<<12)
	for i := range big {
		big[i] = byte(i)
	}
	for i := range words {
		words[i] = uint64(i)
	}
	var in DepInputs
	want := m.Do(in.Reset().Bytes(big).Words(words), f)
	assertZeroAllocs(t, "depmemo/slice-content-hit", func() {
		if got := m.Do(in.Reset().Bytes(big).Words(words), f); got != want {
			t.Fatalf("Do = %d, want %d", got, want)
		}
	})
}

// TestDepMemoElementKeyZeroAlloc pins the element-granular path: a hit
// keyed on two words of a large slice reads just those words.
func TestDepMemoElementKeyZeroAlloc(t *testing.T) {
	m := NewDepMemo(DepConfig{Name: "alloc-dep-elem"})
	f := func(d *Dep) uint64 { return d.Word(0, 3) + d.Word(0, 1000) }
	words := make([]uint64, 4096)
	for i := range words {
		words[i] = uint64(i) * 7
	}
	var in DepInputs
	want := m.Do(in.Reset().Words(words), f)
	assertZeroAllocs(t, "depmemo/element-hit", func() {
		if got := m.Do(in.Reset().Words(words), f); got != want {
			t.Fatalf("Do = %d, want %d", got, want)
		}
	})
}

// BenchmarkDepMemoHit measures the footprint-trie hit path; its 0
// allocs/op is pinned by TestDepMemoHitZeroAlloc.
func BenchmarkDepMemoHit(b *testing.B) {
	m := NewDepMemo(DepConfig{Name: "bench-dep"})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)) * uint64(d.Get(1)) }
	var in DepInputs
	for i := int64(0); i < 256; i++ {
		m.Do(in.Reset().Int(i).Int(i+1), f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i & 255)
		m.Do(in.Reset().Int(k).Int(k+1), f)
	}
}

// BenchmarkDepMemoSliceHit measures a hit keyed on the content of a 64
// KiB slice hashed in place — the case a flat-key memo would pay a
// per-byte pass and a key copy for.
func BenchmarkDepMemoSliceHit(b *testing.B) {
	m := NewDepMemo(DepConfig{Name: "bench-dep-slice"})
	f := func(d *Dep) uint64 { return uint64(d.Bytes(0)[0]) }
	big := make([]byte, 1<<16)
	var in DepInputs
	m.Do(in.Reset().Bytes(big), f)
	b.ReportAllocs()
	b.SetBytes(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Do(in.Reset().Bytes(big), f)
	}
}

// TestTieredDepMemoTrieHitZeroAlloc pins TieredDepMemo's trie-hit path:
// the root span, the counters and DepMemo's flight loop allocate nothing
// when the local trie serves the call.
func TestTieredDepMemoTrieHitZeroAlloc(t *testing.T) {
	tm := newTieredDepMemo(newMemRemote(), TieredDepMemoConfig{Name: "alloc-tiered-dep", Budget: 128})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)) * uint64(d.Get(1)) }
	var in DepInputs
	for i := int64(0); i < 64; i++ {
		tm.Do(in.Reset().Int(i).Int(i+1), f)
	}
	i := int64(0)
	assertZeroAllocs(t, "tiered-dep/trie-hit", func() {
		k := i & 63
		if got := tm.Do(in.Reset().Int(k).Int(k+1), f); got != uint64(k)*uint64(k+1) {
			t.Fatalf("Do(%d) = %d", k, got)
		}
		i++
	})
}
