package compreuse_test

import (
	"testing"
	"time"

	"compreuse"
	"compreuse/internal/obs"
	"compreuse/internal/reused"
)

// TestTraceStitchesAcrossTiers is the end-to-end tracing acceptance
// test at the library level: a TieredMemo over a real in-process
// crcserve must record, for one traced Do, the client-side spans
// (tiered.do root, rpc round trip, compute) and the server-side span
// adopted from the wire frame's trace id — one stitched trace per
// level the request traversed, with the right outcomes.
func TestTraceStitchesAcrossTiers(t *testing.T) {
	_, addr := startNode(t, reused.Config{})
	c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tm, err := compreuse.NewTieredMemo(c, compreuse.TieredMemoConfig{Name: "traced"})
	if err != nil {
		t.Fatal(err)
	}

	obs.EnableTrace(1, 256)
	obs.ResetTraces()
	defer obs.DisableTrace()

	key := []byte("trace-me")
	// First Do: L1 and L2 miss, compute, PUT to the server.
	if v := tm.Do(key, func() uint64 { time.Sleep(time.Millisecond); return 99 }); v != 99 {
		t.Fatalf("Do = %d, want 99", v)
	}
	// Second Do: L1 hit, no wire traffic.
	if v := tm.Do(key, func() uint64 { return 0 }); v != 99 {
		t.Fatalf("second Do = %d, want the memoized 99", v)
	}

	bd := obs.Summarize(obs.TraceSpans())
	if len(bd.Traces) != 2 {
		t.Fatalf("recorded %d traces, want 2 (one per Do): %+v", len(bd.Traces), bd.Traces)
	}
	if bd.Stitched == 0 {
		t.Fatal("no trace stitched across the wire (client root + server span)")
	}

	outcomes := map[string]bool{}
	names := map[string]int{}
	for _, tr := range bd.Traces {
		for _, sp := range tr.Spans {
			names[sp.Name]++
			if sp.Kind == obs.KindRoot {
				outcomes[sp.Outcome] = true
			}
		}
	}
	// One Do computed, the other hit L1.
	if !outcomes["compute"] || !outcomes["l1_hit"] {
		t.Errorf("root outcomes = %v, want both compute and l1_hit", outcomes)
	}
	// The miss trace carried a compute span, the wire round trips, and
	// the adopted server spans for GET and PUT.
	for _, want := range []string{"tiered.do", "compute", "rpc.get", "rpc.put", "srv.get", "srv.put"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded; got %v", want, names)
		}
	}

	// The lone GET found a connection free: it flew at once, alone in
	// its frame.
	for _, tr := range bd.Traces {
		for i := range tr.Spans {
			sp := &tr.Spans[i]
			if sp.Name != "rpc.get" {
				continue
			}
			queued, okQ := sp.Annotation("queued_ns")
			batch, okB := sp.Annotation("batch")
			if !okQ || !okB || queued != 0 || batch != 1 {
				t.Errorf("rpc.get annotations %v, want queued_ns 0 and batch 1",
					sp.Annotations())
			}
		}
	}

	// The stitched trace's per-hop durations nest sanely: the root
	// covers its compute child.
	for _, tr := range bd.Traces {
		if !tr.Stitched() {
			continue
		}
		root := tr.Root()
		if root == nil {
			t.Fatal("stitched trace lost its root")
		}
		for _, sp := range tr.Spans {
			if sp.Name == "compute" && sp.Dur > root.Dur {
				t.Errorf("compute span (%dns) outlasts its root (%dns)", sp.Dur, root.Dur)
			}
		}
	}
}

// TestTracingDisabledRecordsNothing pins the off switch: with tracing
// off (the default), Do must leave the ring untouched.
func TestTracingDisabledRecordsNothing(t *testing.T) {
	if compreuse.TracingEnabled() {
		t.Fatal("tracing unexpectedly on at test start")
	}
	_, addr := startNode(t, reused.Config{})
	c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tm, err := compreuse.NewTieredMemo(c, compreuse.TieredMemoConfig{Name: "untraced"})
	if err != nil {
		t.Fatal(err)
	}
	obs.ResetTraces()
	tm.Do([]byte("k"), func() uint64 { return 1 })
	tm.Do([]byte("k"), func() uint64 { return 1 })
	if spans := obs.TraceSpans(); len(spans) != 0 {
		t.Fatalf("tracing off but %d spans recorded: %+v", len(spans), spans)
	}
}

// TestTraceStitchesTieredDepMemo: a TieredDepMemo request is one trace
// too — a tiered_dep.do root over the compute, the publishing PUT and,
// once the budget has evicted a result, the ghost GET, each stitched to
// the serving node's span.
func TestTraceStitchesTieredDepMemo(t *testing.T) {
	// Governor off: a BYPASS verdict would skip the ghost GET's PUT
	// path this test wants on the wire.
	_, addr := startNode(t, reused.Config{Governor: reused.GovernorConfig{Window: -1}})
	c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tm, err := compreuse.NewTieredDepMemo(c, compreuse.TieredDepMemoConfig{Name: "traced-dep", Budget: 1})
	if err != nil {
		t.Fatal(err)
	}

	obs.EnableTrace(1, 256)
	obs.ResetTraces()
	defer obs.DisableTrace()

	f := func(d *compreuse.Dep) uint64 { return uint64(d.Get(0)) + 100 }
	var in compreuse.DepInputs
	// Compute and publish 1, then 2 (evicting 1 to a ghost), then
	// refill 1 from the server by its ghost key.
	for _, k := range []int64{1, 2, 1} {
		if v := tm.Do(in.Reset().Int(k), f); v != uint64(k)+100 {
			t.Fatalf("Do(%d) = %d", k, v)
		}
	}
	if st := tm.Stats(); st.GhostHits != 1 || st.Computes != 2 {
		t.Fatalf("stats %+v, want one ghost hit after two computes", st)
	}

	bd := obs.Summarize(obs.TraceSpans())
	if len(bd.Traces) != 3 || bd.Stitched != 3 {
		t.Fatalf("%d traces, %d stitched; want 3 stitched (one per Do)", len(bd.Traces), bd.Stitched)
	}
	outcomes := map[string]int{}
	names := map[string]int{}
	for _, tr := range bd.Traces {
		for _, sp := range tr.Spans {
			names[sp.Name]++
			if sp.Kind == obs.KindRoot {
				outcomes[sp.Outcome]++
			}
		}
	}
	if outcomes["compute"] != 2 || outcomes["l2_hit"] != 1 {
		t.Errorf("root outcomes = %v, want compute x2 and l2_hit x1", outcomes)
	}
	for _, want := range []string{"tiered_dep.do", "compute", "rpc.get", "rpc.put", "srv.get", "srv.put"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded; got %v", want, names)
		}
	}
}
