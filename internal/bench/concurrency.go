package bench

// The concurrency sweep is a beyond-paper experiment for the Go-facing
// reuse runtime. The paper's cost model (formula 3: profit = R·C − O)
// prices the hash probe overhead O on a single-threaded 206 MHz iPAQ; a
// server runtime re-prices O under contention, where a single global lock
// inflates every probe's effective cost by the queueing delay behind it.
// The sweep measures probe/record throughput of the reuse table under
// increasing goroutine counts, for the serialized single-mutex design and
// the sharded striped-lock runtime, at the quan-style reuse-heavy key
// distribution. On multi-core hardware the sharded rows scale with
// GOMAXPROCS; on a single-core host the visible effect is the mutex rows
// degrading with goroutine count while the sharded rows stay flat.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"compreuse/internal/reusetab"
)

// concGoroutines are the sweep points (capped at what the host can run).
var concGoroutines = []int{1, 2, 4, 8}

// concTableConfig is the headline unbounded ("optimal") table shape the
// transformed programs use for quan-like segments.
func concTableConfig() reusetab.Config {
	return reusetab.Config{
		Name:     "conc",
		Segs:     1,
		KeyBytes: 4,
		OutWords: []int{1},
		OutBytes: []int{4},
	}
}

// concProbeRecord runs the reuse protocol — probe, record on miss — over a
// 256-hot-key stream, the value-locality regime of G721's quantizer.
func concProbeRecord(probe func([]byte) bool, record func([]byte, uint64), ops int, seed int64) {
	var buf [8]byte
	x := seed
	for i := 0; i < ops; i++ {
		x = (x*75 + 74) & 255
		key := reusetab.AppendInt(buf[:0], x)
		if !probe(key) {
			record(key, uint64(x))
		}
	}
}

type concVariant struct {
	name  string
	build func() (probe func([]byte) bool, record func([]byte, uint64))
}

func concVariants() []concVariant {
	return []concVariant{
		{
			// The historical runtime: one mutex serializing every probe.
			name: "single-mutex",
			build: func() (func([]byte) bool, func([]byte, uint64)) {
				var mu sync.Mutex
				tab := reusetab.New(concTableConfig())
				probe := func(key []byte) bool {
					mu.Lock()
					_, hit := tab.Probe(0, key)
					mu.Unlock()
					return hit
				}
				record := func(key []byte, v uint64) {
					mu.Lock()
					tab.Record(0, key, []uint64{v})
					mu.Unlock()
				}
				return probe, record
			},
		},
		{
			// The sharded runtime: striped locks, per-shard stats.
			name: "sharded-16",
			build: func() (func([]byte) bool, func([]byte, uint64)) {
				tab := reusetab.NewSharded(concTableConfig(), 16)
				probe := func(key []byte) bool {
					_, hit := tab.Probe(0, key)
					return hit
				}
				record := func(key []byte, v uint64) {
					tab.Record(0, key, []uint64{v})
				}
				return probe, record
			},
		},
	}
}

// ConcurrencySweep prints probe throughput (million ops/sec) per runtime
// variant and goroutine count, plus the sharded:mutex throughput ratio at
// each sweep point.
func ConcurrencySweep(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Concurrency sweep. Reuse-runtime throughput under parallel load (beyond the paper)")
	fmt.Fprintf(w, "GOMAXPROCS=%d; probe+record-on-miss over 256 hot keys; Mops/s (higher is better)\n",
		runtime.GOMAXPROCS(0))

	opsPerG := 1 << 19
	if r.Scale > 1 {
		opsPerG = opsPerG / int(r.Scale)
		if opsPerG < 1<<12 {
			opsPerG = 1 << 12
		}
	}

	mops := map[string][]float64{}
	for _, v := range concVariants() {
		for _, g := range concGoroutines {
			probe, record := v.build()
			var wg sync.WaitGroup
			wg.Add(g)
			start := time.Now()
			for i := 0; i < g; i++ {
				go func(seed int64) {
					defer wg.Done()
					concProbeRecord(probe, record, opsPerG, seed)
				}(int64(i*7 + 1))
			}
			wg.Wait()
			elapsed := time.Since(start)
			total := float64(g * opsPerG)
			mops[v.name] = append(mops[v.name], total/elapsed.Seconds()/1e6)
		}
	}

	head := "runtime        "
	for _, g := range concGoroutines {
		head += fmt.Sprintf("%10s", fmt.Sprintf("%dg", g))
	}
	fmt.Fprintln(w, head)
	for _, v := range concVariants() {
		row := fmt.Sprintf("%-15s", v.name)
		for _, m := range mops[v.name] {
			row += fmt.Sprintf("%10.2f", m)
		}
		fmt.Fprintln(w, row)
	}
	row := fmt.Sprintf("%-15s", "sharded:mutex")
	for i := range concGoroutines {
		row += fmt.Sprintf("%9.2fx", mops["sharded-16"][i]/mops["single-mutex"][i])
	}
	fmt.Fprintln(w, row)
	return nil
}

func init() {
	extraExperiments = append(extraExperiments,
		Experiment{"conc", "Reuse-runtime throughput under parallel load (beyond the paper)", ConcurrencySweep},
	)
}
