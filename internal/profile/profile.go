// Package profile drives the two profiling stages of the scheme (paper
// §2.1 and Fig. 1), which here share one instrumented execution:
//
//   - execution-frequency profiling (the gprof/gcov stand-in): the VM
//     counts function entries, loop iterations and branch executions;
//     FrequencyFilter removes infrequently executed segments;
//   - value-set profiling: the same run watches every candidate in place
//     (interp.Watch: entry and exit hooks, no rewrite of the program),
//     taking each one's census of distinct input sets and measuring its
//     true granularity C. Layout then turns the run's observations into
//     the profiles of the segments that passed the frequency filter,
//     exactly as wrapping only those segments in profile-mode reuse
//     regions — with the same table merging and instrumentation charges
//     — would have measured them.
package profile

import (
	"fmt"
	"sort"

	"compreuse/internal/cost"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
	"compreuse/internal/segment"
	"compreuse/internal/transform"
)

// SegProfile is the value-set profile of one candidate segment.
type SegProfile struct {
	// Name is the segment's stable name ("quan@func").
	Name string
	// N is the number of execution instances observed.
	N int64
	// Nds is the number of distinct input sets.
	Nds int64
	// MeasuredC is the measured granularity in cycles per instance.
	MeasuredC float64
	// Overhead is the modeled hashing overhead in cycles per instance.
	Overhead float64
	// TableName identifies the (possibly merged) table this segment used.
	TableName string
	// Census is the distinct-input census with per-key counts, in
	// first-seen order. For merged tables the census is shared.
	Census []reusetab.KeyCount
	// KeyBytes is the modeled input-set width.
	KeyBytes int
}

// ReuseRate is R = 1 − Nds/N (paper §2.1).
func (sp *SegProfile) ReuseRate() float64 {
	if sp.N == 0 {
		return 0
	}
	return 1 - float64(sp.Nds)/float64(sp.N)
}

// CostProfile converts to the cost package's Profile for the formulas.
func (sp *SegProfile) CostProfile() cost.Profile {
	return cost.Profile{C: sp.MeasuredC, O: sp.Overhead, N: sp.N, Nds: sp.Nds}
}

// Gain is the per-instance gain R·C − O (formula 2).
func (sp *SegProfile) Gain() float64 { return sp.CostProfile().Gain() }

// FrequencyFilter keeps the segments whose instance count in the
// frequency-profiling run reaches min (paper §2.1: "we filter out code
// segments which are executed infrequently").
func FrequencyFilter(cands []*segment.Segment, freq []int64, min int64) []*segment.Segment {
	var out []*segment.Segment
	for _, s := range cands {
		if s.FreqID < len(freq) && freq[s.FreqID] >= min {
			out = append(out, s)
		}
	}
	return out
}

// Collect profiles cands in one watched run of prog on runOpts and
// returns the profiles keyed by segment name, with the run's result
// (whose Cycles and Ops are a plain run's; Side holds the
// instrumentation). model must match the cost model the final decision
// targets, so that the measured C and the modeled O are commensurable.
func Collect(prog *minic.Program, cands []*segment.Segment, model *cost.Model,
	runOpts interp.Options) (map[string]*SegProfile, *interp.Result, error) {

	runOpts.Model = model
	res, err := interp.RunWatched(prog, runOpts, Watches(cands, false))
	if err != nil {
		return nil, nil, fmt.Errorf("value-set profiling run: %w", err)
	}
	profiles, err := Layout(cands, res.Watched, cands, model)
	if err != nil {
		return nil, nil, err
	}
	return profiles, res, nil
}

// Watches returns the watches that profile segs in place, in order: each
// keys on and reads what transform.Apply's region for the segment would.
// With dep, each takes a footprint census instead, on the inputs a
// dependence-tracked region tracks (Segment.DepInputs).
func Watches(segs []*segment.Segment, dep bool) []*interp.Watch {
	out := make([]*interp.Watch, len(segs))
	for i, s := range segs {
		w := &interp.Watch{Body: s.Body, Hoisted: transform.HoistedDecls(s), Dep: dep}
		switch s.Kind {
		case segment.FuncBody:
			w.Body, w.To = s.Fn.Body, len(s.Body.(*minic.Block).Stmts)
		case segment.SubBlock:
			w.Body, w.From, w.To = s.ParentBlock, s.RunStart, s.RunEnd
		}
		inputs := s.Inputs
		if dep {
			inputs = s.DepInputs()
		}
		for _, in := range inputs {
			w.Inputs = append(w.Inputs, minic.Ref(in.Sym, in.Elem))
		}
		for _, o := range s.Outputs {
			w.Outputs = append(w.Outputs, minic.Ref(o.Sym, o.Elem))
		}
		out[i] = w
	}
	return out
}

// Layout builds the value-set profiles of keep from a run that watched
// watched (stats[i] observed watched[i]; keep is a subset). The profiles
// are those of wrapping keep in profile-mode regions: sub-block segments,
// which may overlap, in waves of pairwise-disjoint segments after one
// wave of the others; within a wave, segments with identical inputs
// share a merged table (transform.Groups), whose census ranks keys by
// first sighting across its members; and a segment's body cycles include
// the instrumentation of only the segments of its own wave.
func Layout(watched []*segment.Segment, stats []interp.WatchStats, keep []*segment.Segment,
	model *cost.Model) (map[string]*SegProfile, error) {

	idx := make(map[*segment.Segment]int, len(watched))
	for i, s := range watched {
		idx[s] = i
	}
	var normal, subs []*segment.Segment
	for _, s := range keep {
		if err := stats[idx[s]].Err; err != nil {
			return nil, fmt.Errorf("value-set profiling run: %w", err)
		}
		if s.Kind == segment.SubBlock {
			subs = append(subs, s)
		} else {
			normal = append(normal, s)
		}
	}
	waves := [][]*segment.Segment{normal}
	for len(subs) > 0 {
		var wave []*segment.Segment
		wave, subs = segment.Disjoint(subs, nil)
		waves = append(waves, wave)
	}
	profiles := map[string]*SegProfile{}
	for _, wave := range waves {
		for _, group := range transform.Groups(wave, false) {
			layoutTable(profiles, group, wave, idx, stats, model)
		}
	}
	return profiles, nil
}

// layoutTable adds the profiles of the segments sharing one table.
func layoutTable(profiles map[string]*SegProfile, group, wave []*segment.Segment,
	idx map[*segment.Segment]int, stats []interp.WatchStats, model *cost.Model) {

	name := transform.TableName(group)
	if len(group) == 1 {
		// A lone member's census is in first-seen order: its ranks are
		// its indices.
		s := group[0]
		st := &stats[idx[s]]
		census := make([]reusetab.KeyCount, st.Census.Len())
		for i := range census {
			census[i] = reusetab.KeyCount{Key: st.Census.Key(i), Count: st.Census.At(i).Count, Rank: i}
		}
		profiles[s.Name] = segProfile(s, st, name, census, wave, idx, model)
		return
	}

	// The table's ranks order the members' keys by first sighting.
	// first[u] is the earliest sighting of union key u, and unionOf[m][i]
	// is the union index of member m's i-th key.
	var first []int64
	index := map[string]int{}
	unionOf := make([][]int, len(group))
	for m, s := range group {
		census := &stats[idx[s]].Census
		unionOf[m] = make([]int, census.Len())
		for i := range unionOf[m] {
			k, ks := census.At(i), census.Key(i)
			u, seen := index[ks]
			if !seen {
				u = len(first)
				index[ks] = u
				first = append(first, k.First)
			}
			first[u] = min(first[u], k.First)
			unionOf[m][i] = u
		}
	}
	order := make([]int, len(first))
	for u := range order {
		order[u] = u
	}
	sort.Slice(order, func(i, j int) bool { return first[order[i]] < first[order[j]] })
	rank := make([]int, len(first))
	for r, u := range order {
		rank[u] = r
	}

	for m, s := range group {
		st := &stats[idx[s]]
		census := make([]reusetab.KeyCount, st.Census.Len())
		for i := range census {
			census[i] = reusetab.KeyCount{Key: st.Census.Key(i), Count: st.Census.At(i).Count, Rank: rank[unionOf[m][i]]}
		}
		sort.Slice(census, func(i, j int) bool { return census[i].Rank < census[j].Rank })
		profiles[s.Name] = segProfile(s, st, name, census, wave, idx, model)
	}
}

// segProfile is the profile of s, watched as st, in a table named name
// with the given census. Its body cycles include the instrumentation of
// the segments of its own wave.
func segProfile(s *segment.Segment, st *interp.WatchStats, name string, census []reusetab.KeyCount,
	wave []*segment.Segment, idx map[*segment.Segment]int, model *cost.Model) *SegProfile {

	body := st.Run.BodyCycles
	for _, t := range wave {
		body += st.Nested[idx[t]]
	}
	sp := &SegProfile{
		Name:      s.Name,
		TableName: name,
		N:         st.Run.Instances,
		Nds:       int64(len(census)),
		Overhead:  float64(model.HashOverhead(s.KeyBytes, s.OutBytes)),
		Census:    census,
		KeyBytes:  s.KeyBytes,
	}
	if st.Run.BodyRuns > 0 {
		sp.MeasuredC = float64(body) / float64(st.Run.BodyRuns)
	}
	return sp
}

// CollisionDeduction estimates, from a profiling census and an intended
// direct-addressed table size, the fraction of executions that will miss
// because a different key occupies their slot — the paper's §2.1: "during
// value-set profiling, we can count the hash collision rate for each value
// set and deduct the reuse rate accordingly. (In our experiments, only the
// program MPEG2 generates collisions.)"
//
// The estimate assigns each slot to its most frequent key (direct
// addressing with replacement converges toward keeping the hot key);
// executions of the other keys mapping there are counted as collision
// misses beyond their first.
func CollisionDeduction(census []reusetab.KeyCount, entries int) float64 {
	if entries <= 0 || len(census) == 0 {
		return 0
	}
	var total int64
	slotMax := map[int]int64{}
	slotSum := map[int]int64{}
	for _, kc := range census {
		total += kc.Count
		idx := reusetab.IndexOf(kc.Key, entries)
		slotSum[idx] += kc.Count
		if kc.Count > slotMax[idx] {
			slotMax[idx] = kc.Count
		}
	}
	if total == 0 {
		return 0
	}
	var collided int64
	for idx, sum := range slotSum {
		collided += sum - slotMax[idx]
	}
	return float64(collided) / float64(total)
}

// Bucket is one histogram bar.
type Bucket struct {
	// Lo and Hi delimit the value range [Lo, Hi).
	Lo, Hi int64
	// Count is the total number of executions whose (first) input value
	// fell in the range.
	Count int64
	// Distinct is the number of distinct values in the range.
	Distinct int
}

// ValueHistogram buckets the census by the first 32-bit input value of
// each key — the paper's Figures 5, 6, 12 and 13 histogram input values.
// It returns nil when keys are not decodable as ints.
func ValueHistogram(census []reusetab.KeyCount, buckets int) []Bucket {
	if len(census) == 0 || buckets <= 0 {
		return nil
	}
	var minV, maxV int64
	first := true
	vals := make([]int64, 0, len(census))
	counts := make([]int64, 0, len(census))
	// One scratch buffer decodes every census key; a large census would
	// otherwise allocate a fresh int slice per key.
	var scratch []int32
	for _, kc := range census {
		ints, ok := reusetab.DecodeIntsInto(scratch[:0], kc.Key)
		if !ok || len(ints) == 0 {
			return nil
		}
		scratch = ints
		v := int64(ints[0])
		vals = append(vals, v)
		counts = append(counts, kc.Count)
		if first || v < minV {
			minV = v
		}
		if first || v > maxV {
			maxV = v
		}
		first = false
	}
	span := maxV - minV + 1
	width := (span + int64(buckets) - 1) / int64(buckets)
	if width == 0 {
		width = 1
	}
	out := make([]Bucket, buckets)
	for i := range out {
		out[i].Lo = minV + int64(i)*width
		out[i].Hi = out[i].Lo + width
	}
	for i, v := range vals {
		b := int((v - minV) / width)
		if b >= buckets {
			b = buckets - 1
		}
		out[b].Count += counts[i]
		out[b].Distinct++
	}
	return out
}

// RankHistogram buckets per-entry access counts by entry rank — the
// paper's Figures 7, 8 and 11 histogram accessed table entries / distinct
// input patterns.
func RankHistogram(access []int64, buckets int) []Bucket {
	if len(access) == 0 || buckets <= 0 {
		return nil
	}
	width := (len(access) + buckets - 1) / buckets
	if width == 0 {
		width = 1
	}
	n := (len(access) + width - 1) / width
	out := make([]Bucket, n)
	for i := range out {
		out[i].Lo = int64(i * width)
		out[i].Hi = int64((i + 1) * width)
	}
	for rank, c := range access {
		b := rank / width
		out[b].Count += c
		if c > 0 {
			out[b].Distinct++
		}
	}
	return out
}
