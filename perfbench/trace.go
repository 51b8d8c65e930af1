package main

import "time"

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op share op; an op's root
// span has parent -1.
type span struct {
	name       string
	op         int64
	parent     int32
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps one goroutine's spans in memory until the run ends.
// It is not safe for concurrent use; give each worker its own.
type recorder struct {
	epoch time.Time
	limit int
	spans []span
	op    int64
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

// full reports whether another op of up to n spans would exceed the
// recorder's preallocated capacity.
func (r *recorder) full(n int) bool { return len(r.spans)+n > r.limit }

// root opens the root span of a new op.
func (r *recorder) root(name string) int32 {
	r.op++
	return r.begin(name, -1)
}

// begin opens a span under parent and returns its handle.
func (r *recorder) begin(name string, parent int32) int32 {
	r.spans = append(r.spans, span{name: name, op: r.op, parent: parent, start: time.Since(r.epoch)})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) { r.spans[i].end = time.Since(r.epoch) }

// rename relabels span i, so an op's root can carry the outcome that
// was only known once the op completed.
func (r *recorder) rename(i int32, name string) { r.spans[i].name = name }

// layerTotal aggregates the spans of one name: their count, their
// summed duration, and their summed self time — the duration minus the
// part of it the span's children cover.
type layerTotal struct {
	count       int64
	total, self time.Duration
}

// layerTotals is the per-name aggregate of a set of recorded spans.
type layerTotals map[string]*layerTotal

// add folds a recorder's closed spans into t. Children run inside their
// parent and one after another, so a parent's self time is its duration
// minus the sum of its children's durations.
func (t layerTotals) add(spans []span) {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		lt := t[s.name]
		if lt == nil {
			lt = &layerTotal{}
			t[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.total += d
		lt.self += d - child[i]
	}
}

// get returns the aggregate for name, zero when no span had it.
func (t layerTotals) get(name string) layerTotal {
	if lt := t[name]; lt != nil {
		return *lt
	}
	return layerTotal{}
}

// meanTotal is the mean span duration of name in unit, 0 without spans.
func (t layerTotals) meanTotal(name string, unit time.Duration) float64 {
	lt := t.get(name)
	if lt.count == 0 {
		return 0
	}
	return float64(lt.total) / float64(lt.count) / float64(unit)
}

// selfPer is the summed self time of the names divided by n, in unit.
func (t layerTotals) selfPer(n int64, unit time.Duration, names ...string) float64 {
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for _, name := range names {
		sum += t.get(name).self
	}
	return float64(sum) / float64(n) / float64(unit)
}

// selfSum is the summed self time of every recorded span.
func (t layerTotals) selfSum() time.Duration {
	var sum time.Duration
	for _, lt := range t {
		sum += lt.self
	}
	return sum
}
