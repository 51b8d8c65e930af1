package compreuse

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Ding & Li, CGO 2004, §3). Each benchmark regenerates
// its table/figure through internal/bench, printing the rows on the first
// iteration, and reports the paper's headline metric as custom b.Report
// metrics (speedups, reuse rates, energy savings).
//
// The shared runner memoizes pipeline runs across benchmarks, so
// `go test -bench=. -benchmem` performs one full evaluation. Benchmarks
// run at a reduced workload scale (benchScale) to keep the suite fast;
// `cmd/crcbench` runs the full published configuration.

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"compreuse/internal/bench"
)

// benchScale divides workload sizes for the in-test harness (cmd/crcbench
// uses scale 1).
const benchScale = 4

var (
	benchRunnerOnce sync.Once
	benchRunner     *bench.Runner
)

func sharedRunner() *bench.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = bench.NewRunner()
		benchRunner.Scale = benchScale
	})
	return benchRunner
}

// runExperiment drives one table/figure generator; output is printed once.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	var exp *bench.Experiment
	for _, e := range bench.Experiments() {
		if e.Name == name {
			exp = &e
			break
		}
	}
	if exp == nil {
		b.Fatalf("unknown experiment %s", name)
	}
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		if i == 0 {
			w = os.Stdout
			fmt.Println()
		}
		if err := exp.Run(w, r); err != nil {
			b.Fatal(err)
		}
	}
}

// reportSpeedups attaches per-program speedups as benchmark metrics.
func reportSpeedups(b *testing.B, level string) {
	r := sharedRunner()
	for _, p := range bench.Core() {
		rep, err := r.Report(p.Name, level)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Speedup(), p.Name+"_speedup")
	}
}

// BenchmarkTable3 regenerates Table 3 (optimization-decision factors:
// granularity, overhead, DIP#, reuse rate, table size).
func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3")
	r := sharedRunner()
	for _, p := range bench.Core() {
		rep, err := r.Report(p.Name, "O0")
		if err != nil {
			b.Fatal(err)
		}
		if sp := bench.MainProfile(rep); sp != nil {
			b.ReportMetric(sp.ReuseRate(), p.Name+"_R")
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (segments analyzed / profiled /
// transformed).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table 5 (hit ratios with 1/4/16/64-entry LRU
// buffers emulating the hardware proposals).
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6 regenerates Table 6 (speedups at O0, with the G721 _s/_b
// variants and the harmonic mean).
func BenchmarkTable6(b *testing.B) {
	runExperiment(b, "table6")
	reportSpeedups(b, "O0")
}

// BenchmarkTable7 regenerates Table 7 (speedups at O3).
func BenchmarkTable7(b *testing.B) {
	runExperiment(b, "table7")
	reportSpeedups(b, "O3")
}

// BenchmarkTable8 regenerates Table 8 (energy savings at O0).
func BenchmarkTable8(b *testing.B) {
	runExperiment(b, "table8")
	r := sharedRunner()
	for _, p := range bench.Core() {
		rep, err := r.Report(p.Name, "O0")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.EnergySaving()*100, p.Name+"_save%")
	}
}

// BenchmarkTable9 regenerates Table 9 (energy savings at O3).
func BenchmarkTable9(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkTable10 regenerates Table 10 (speedups on inputs other than the
// profiled one, at O3).
func BenchmarkTable10(b *testing.B) { runExperiment(b, "table10") }

// BenchmarkFigure5 regenerates Figure 5 (G721_encode input-value histogram).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates Figure 6 (G721_decode input-value histogram).
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates Figure 7 (G721_encode accessed-entry
// histogram).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8 regenerates Figure 8 (G721_decode accessed-entry
// histogram).
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure11 regenerates Figure 11 (RASTA distinct-input-pattern
// histogram).
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFigure12 regenerates Figure 12 (UNEPIC input-value histogram).
func BenchmarkFigure12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFigure13 regenerates Figure 13 (GNU Go input-value histogram).
func BenchmarkFigure13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFigure14 regenerates Figure 14 (speedups vs hash-table size,
// O0).
func BenchmarkFigure14(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFigure15 regenerates Figure 15 (speedups vs hash-table size,
// O3).
func BenchmarkFigure15(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkVM measures the raw interpreter throughput on the quan loop —
// a substrate microbenchmark, not a paper artifact.
func BenchmarkVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Execute("quan.c", quanSrc, []int64{7, 2000}, "O0"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemo measures the Go-level memoization wrapper overhead.
func BenchmarkMemo(b *testing.B) {
	f, _ := Memo(func(x int) int { return x * x })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(i & 63)
	}
}

// ---- Concurrent-runtime benchmarks ----
//
// The paper's profitability condition R·C − O > 0 (formula 3) makes the
// lookup overhead O the whole game: a memoized segment only wins while a
// probe stays cheap. These benchmarks compare the sharded runtime against
// the single-global-mutex design it replaced, under parallel load; run
// with -cpu=1,4,8 to see the sharded variants scale with GOMAXPROCS while
// the mutex baselines flatline or regress.

// singleMutexMemo is the pre-sharding Memo: one mutex around one map.
// It is kept here (not in memo.go) purely as the benchmark baseline.
func singleMutexMemo[K comparable, V any](f func(K) V) func(K) V {
	var mu sync.Mutex
	table := map[K]V{}
	return func(k K) V {
		mu.Lock()
		if v, ok := table[k]; ok {
			mu.Unlock()
			return v
		}
		mu.Unlock()
		v := f(k)
		mu.Lock()
		table[k] = v
		mu.Unlock()
		return v
	}
}

// BenchmarkMemoParallel measures the sharded, singleflight Memo under
// parallel reuse-heavy load (64 hot keys, the quan regime).
func BenchmarkMemoParallel(b *testing.B) {
	f, _ := Memo(func(x int) int { return x * x })
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f(i & 63)
			i++
		}
	})
}

// BenchmarkMemoSingleMutexParallel is the contended baseline for
// BenchmarkMemoParallel.
func BenchmarkMemoSingleMutexParallel(b *testing.B) {
	f := singleMutexMemo(func(x int) int { return x * x })
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f(i & 63)
			i++
		}
	})
}

// benchMemoTableParallel drives a MemoTable with the byte-key probe/record
// protocol of the transformed programs.
func benchMemoTableParallel(b *testing.B, cfg MemoTableConfig) {
	mt := NewMemoTable(cfg)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		var buf [8]byte
		for pb.Next() {
			key := EncodeInt(buf[:0], int64(i&255))
			if _, ok := mt.Lookup(key); !ok {
				mt.Store(key, uint64(i))
			}
			i++
		}
	})
}

// BenchmarkMemoTableShardedParallel stripes the table 16 ways.
func BenchmarkMemoTableShardedParallel(b *testing.B) {
	benchMemoTableParallel(b, MemoTableConfig{Name: "sharded", Shards: 16})
}

// BenchmarkMemoTableSingleShardParallel serializes every probe behind one
// shard, the historical MemoTable behavior.
func BenchmarkMemoTableSingleShardParallel(b *testing.B) {
	benchMemoTableParallel(b, MemoTableConfig{Name: "single", Shards: 1})
}

// BenchmarkMemoTableLRUShardedParallel exercises the O(1) LRU under
// parallel eviction churn (256 keys through 16×8-entry stripes).
func BenchmarkMemoTableLRUShardedParallel(b *testing.B) {
	benchMemoTableParallel(b, MemoTableConfig{Name: "lru", Entries: 128, LRU: true, Shards: 16})
}

// BenchmarkMemoTableLRUHit prices a hit in TieredMemo's L1 shape: a
// 4096-entry LRU MemoTable that has already looked up and stored 200 000
// distinct keys, probed round-robin with its resident keys. A hit pays
// the shard lock, the resident-key lookup and the recency update; the
// table keeps nothing of the keys it has evicted.
func BenchmarkMemoTableLRUHit(b *testing.B) {
	const entries, seen = 4096, 200_000
	mt := NewMemoTable(MemoTableConfig{Name: "hit", Entries: entries, LRU: true})
	var kb KeyBuf
	for i := int64(0); i < seen; i++ {
		key := kb.Reset().Int(i).Bytes()
		if _, ok := mt.Lookup(key); !ok {
			mt.Store(key, uint64(i))
		}
	}
	keys := make([][]byte, entries)
	for i := range keys {
		keys[i] = EncodeInt(nil, int64(seen-entries+i))
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := mt.Lookup(keys[i%entries]); !ok {
				b.Fatal("resident key missed")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := mt.Lookup(keys[i%entries]); !ok {
					b.Error("resident key missed")
					return
				}
				i++
			}
		})
	})
}
