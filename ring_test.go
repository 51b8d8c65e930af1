package compreuse_test

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"compreuse"
	"compreuse/internal/obs"
	"compreuse/internal/reused"
)

// startNode runs one in-process crcserve on a loopback listener.
func startNode(t *testing.T, cfg reused.Config) (*reused.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := reused.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close(); <-done })
	return srv, ln.Addr().String()
}

func fleetKey(i int) []byte { return []byte(fmt.Sprintf("pool-key-%05d", i)) }

// TestRingFailover is the fleet acceptance scenario: a 3-node ring with
// 2-way replication loses a node under traffic. Reads for keys whose
// primary died must fail over along the ring (served from the replica,
// no error), writes must re-route, and the client must report the node
// down and count the failovers.
func TestRingFailover(t *testing.T) {
	// Governor off: this test is about routing, and a mid-test BYPASS
	// verdict would turn hits into governor answers.
	cfg := reused.Config{Governor: reused.GovernorConfig{Window: -1}}
	srvs := make([]*reused.Server, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		srvs[i], addrs[i] = startNode(t, cfg)
	}

	c, err := compreuse.DialCache(compreuse.ClientConfig{
		Addr:     strings.Join(addrs, ","),
		Replicas: 2,
		// Keep the dead node dead for the whole test: no background
		// redial resurrecting it into the ring between assertions.
		RedialEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seg, err := c.Segment("failover", compreuse.SegmentConfig{OutWords: 1})
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		if err := seg.Put(fleetKey(i), []uint64{uint64(i)}, time.Millisecond); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Replica writes are fire-and-forget; wait for the queue to drain so
	// the fallback copies exist before the primary dies.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := int64(0)
		for _, ns := range seg.NodeStats() {
			total += ns.Stats.Resident
		}
		if total >= 2*n || time.Now().After(deadline) {
			if total < 2*n {
				t.Fatalf("replicas never landed: %d resident fleet-wide, want %d", total, 2*n)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if drops := seg.ReplicaDrops(); drops != 0 {
		t.Fatalf("%d replica writes dropped with an idle queue", drops)
	}

	// Baseline: everything hits, nothing fails over.
	for i := 0; i < n; i++ {
		vals, status, err := seg.Get(fleetKey(i))
		if err != nil || status != compreuse.Hit || vals[0] != uint64(i) {
			t.Fatalf("pre-kill get %d: vals=%v status=%v err=%v", i, vals, status, err)
		}
	}

	// Kill one node. With 3 nodes, roughly a third of the keys lose
	// their primary and every one of them must be answered by a replica.
	srvs[2].Close()

	for i := 0; i < n; i++ {
		vals, status, err := seg.Get(fleetKey(i))
		if err != nil {
			t.Fatalf("post-kill get %d: %v (reads must fail over, not fail)", i, err)
		}
		if status != compreuse.Hit || vals[0] != uint64(i) {
			t.Fatalf("post-kill get %d: status=%v vals=%v, want replica hit", i, status, vals)
		}
	}

	// The client noticed: the dead node is marked down and the reads
	// that skipped it were counted.
	downs := c.DownNodes()
	if len(downs) != 1 || downs[0] != addrs[2] {
		t.Errorf("DownNodes = %v, want [%s]", downs, addrs[2])
	}
	var failovers int64
	for _, ns := range seg.NodeStats() {
		if ns.Addr == addrs[2] {
			if !ns.Down {
				t.Errorf("node %s not reported down", ns.Addr)
			}
			failovers += ns.Failovers
		}
	}
	if failovers == 0 {
		t.Error("no failovers counted against the dead node")
	}

	// Writes re-route: new keys whose primary died land on the next ring
	// node and read back as hits.
	for i := n; i < n+100; i++ {
		if err := seg.Put(fleetKey(i), []uint64{uint64(i)}, time.Millisecond); err != nil {
			t.Fatalf("post-kill put %d: %v (writes must re-route)", i, err)
		}
	}
	for i := n; i < n+100; i++ {
		vals, status, err := seg.Get(fleetKey(i))
		if err != nil || status != compreuse.Hit || vals[0] != uint64(i) {
			t.Fatalf("re-routed get %d: vals=%v status=%v err=%v", i, vals, status, err)
		}
	}
}

// TestRingOfOne checks the ring with one node: no replication
// partners, no fallbacks, but the same surface.
func TestRingOfOne(t *testing.T) {
	_, addr := startNode(t, reused.Config{Governor: reused.GovernorConfig{Window: -1}})
	c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg, err := c.Segment("solo", compreuse.SegmentConfig{OutWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Put([]byte("k"), []uint64{3, 9}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	vals, status, err := seg.Get([]byte("k"))
	if err != nil || status != compreuse.Hit || len(vals) != 2 || vals[1] != 9 {
		t.Fatalf("get = %v %v %v", vals, status, err)
	}
	st, err := seg.Stats()
	if err != nil || st.Hits != 1 {
		t.Fatalf("stats = %+v, %v", st, err)
	}
}

// TestRingOfOneRecoversAfterRestart: a single-address client marks its
// node down when the server dies and redials it in the background, so a
// TieredMemo over it is served from L2 again once a crcserve restarts on
// the same address. A client that never redials would compute locally,
// with Errors growing, forever.
func TestRingOfOneRecoversAfterRestart(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "crc.sock")
	serve := func() (*reused.Server, chan error) {
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		srv := reused.New(reused.Config{Governor: reused.GovernorConfig{Window: -1}})
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return srv, done
	}
	srv, done := serve()

	c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: "unix://" + sock,
		RedialEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A one-entry L1 sends every other key of an alternating pair
	// across the wire.
	tm, err := compreuse.NewTieredMemo(c, compreuse.TieredMemoConfig{
		Name: "restart", L1Entries: 1, L1LRU: true})
	if err != nil {
		t.Fatal(err)
	}
	do := func(i int) {
		t.Helper()
		if v := tm.Do(fleetKey(i), func() uint64 { return uint64(i) * 7 }); v != uint64(i)*7 {
			t.Fatalf("Do(%d) = %d, want %d", i, v, i*7)
		}
	}
	for _, i := range []int{0, 1, 0} {
		do(i)
	}
	if st := tm.Stats(); st.L2Hits != 1 || st.Errors != 0 {
		t.Fatalf("before restart: %+v, want one L2 hit and no errors", st)
	}

	srv.Close()
	<-done
	// With the server gone every Do computes locally and counts the
	// failure.
	for _, i := range []int{1, 0, 1} {
		do(i)
	}
	if st := tm.Stats(); st.Errors == 0 {
		t.Fatalf("server down: %+v, want remote errors counted", st)
	}

	srv, done = serve()
	defer func() { srv.Close(); <-done }()
	deadline := time.Now().Add(10 * time.Second)
	for i := 10; ; i += 2 {
		before := tm.Stats()
		for _, k := range []int{i, i + 1, i} {
			do(k)
		}
		after := tm.Stats()
		if after.Errors == before.Errors && after.L2Hits > before.L2Hits {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no L2 service 10s after the restart: %+v", after)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRingProtocolErrorSurfaces: an error the node answered with (here
// a wrong-arity Put) is the request's problem, not the node's. The walk
// must return it from the first node it reached, mark no node down and
// charge no failover, and a traced "pool.put" span must record it as
// proto_err at hops 0.
func TestRingProtocolErrorSurfaces(t *testing.T) {
	cfg := reused.Config{Governor: reused.GovernorConfig{Window: -1}}
	_, a := startNode(t, cfg)
	_, b := startNode(t, cfg)
	c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: a + "," + b, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg, err := c.Segment("arity", compreuse.SegmentConfig{OutWords: 2})
	if err != nil {
		t.Fatal(err)
	}

	obs.EnableTrace(1, 256)
	obs.ResetTraces()
	defer obs.DisableTrace()
	root := obs.StartRoot("test.put")
	err = seg.PutTraced([]byte("k"), []uint64{1}, time.Millisecond, root.Context())
	root.End()
	if err == nil {
		t.Fatal("wrong-arity Put returned no error")
	}

	if down := c.DownNodes(); len(down) != 0 {
		t.Errorf("DownNodes = %v after a protocol error, want none", down)
	}
	for _, ns := range seg.NodeStats() {
		if ns.Failovers != 0 || ns.Down {
			t.Errorf("node %s: failovers %d, down %v; want 0, false", ns.Addr, ns.Failovers, ns.Down)
		}
	}
	var found bool
	for _, sp := range obs.TraceSpans() {
		if sp.Name != "pool.put" {
			continue
		}
		found = true
		if hops, ok := sp.Annotation("hops"); sp.Outcome != "proto_err" || !ok || hops != 0 {
			t.Errorf("pool.put span: outcome %q, annotations %v; want proto_err with hops 0",
				sp.Outcome, sp.Annotations())
		}
	}
	if !found {
		t.Error("no pool.put span recorded")
	}
}
