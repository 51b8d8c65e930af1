package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be more than a reading of the few slowest operations.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the p-quantile of sorted data with the same
// "exclusive" interpolation as Python's statistics.quantiles: the
// position is p·(n+1), clamped to the first and last sample.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n+1)
	switch {
	case h <= 1:
		return sorted[0]
	case h >= float64(n):
		return sorted[n-1]
	}
	j := int(h)
	frac := h - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the three cut points statistics.quantiles(xs, n=4)
// gives.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// beyond counts the samples of n that lie above the p-quantile.
func beyond(n int, p float64) int { return int(math.Floor(float64(n) * (1 - p))) }

// tailOK reports whether n samples support the p-quantile under the
// ten-samples-beyond rule.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// cpuTime is the process's user plus system CPU time so far, every
// thread included (GC workers and an in-process server too).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuStat reads the machine's steal and total jiffies from /proc/stat:
// steal is time the hypervisor ran something else on our vCPUs, the
// noise no in-process measure can remove.
func cpuStat() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// band is the accepted range of one tier share of a workload's mix.
type band struct {
	name   string
	lo, hi float64
}

// outside returns the shares that fall outside their bands, in band
// order, formatted for the failure report. A missing share reads as 0.
func outside(shares map[string]float64, bands []band) []string {
	var bad []string
	for _, b := range bands {
		v := shares[b.name]
		if v < b.lo || v > b.hi {
			bad = append(bad, b.name)
		}
	}
	return bad
}

// windowRates turns per-window op counts and CPU readings into the
// per-window throughput (ops per wall second) and CPU cost (µs per op).
// cpu holds one reading per window boundary (len(ops)+1). Windows with
// no completed op are skipped.
func windowRates(ops []int64, cpu []time.Duration, window time.Duration) (opsS, cpuUS []float64) {
	for i, n := range ops {
		if n == 0 || i+1 >= len(cpu) {
			continue
		}
		opsS = append(opsS, float64(n)/window.Seconds())
		cpuUS = append(cpuUS, float64(cpu[i+1]-cpu[i])/1e3/float64(n))
	}
	return opsS, cpuUS
}
