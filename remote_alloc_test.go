package compreuse

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"compreuse/internal/reused"
)

// TestRemoteHitAllocs pins the allocations of a remote hit over a real
// unix connection to an in-process server: a RemoteSegment.Get hit, and
// a TieredMemo.Do served from L2 after its L1 was emptied. AllocsPerRun
// counts allocations process-wide, so each figure covers the client,
// the wire codec and the server's side of the round trip. The governor
// is off (Window: -1) so a bypass flip cannot turn a probe local.
func TestRemoteHitAllocs(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "alloc.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := reused.New(reused.Config{Governor: reused.GovernorConfig{Window: -1}})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	c, err := DialCache(ClientConfig{Addr: "unix://" + sock})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg, err := c.Segment("alloc", SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTieredMemo(c, TieredMemoConfig{Name: "alloc-tiered"})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("the-key")
	if err := seg.Put(key, []uint64{42}, time.Microsecond); err != nil {
		t.Fatal(err)
	}
	tm.Do(key, func() uint64 { return 7 }) // computes, and publishes to L2
	noCompute := func() uint64 { t.Fatal("an L2 hit must not compute"); return 0 }

	const runs = 200
	for _, pin := range []struct {
		name string
		want float64
		op   func()
	}{
		{"RemoteSegment.Get hit", 3, func() {
			if vals, status, err := seg.Get(key); err != nil || status != Hit || vals[0] != 42 {
				t.Fatalf("Get = %v, %v, %v; want [42], hit, <nil>", vals, status, err)
			}
		}},
		{"TieredMemo.Do L2 hit, L1 emptied", 9, func() {
			tm.l1.Reset()
			if v := tm.Do(key, noCompute); v != 7 {
				t.Fatalf("Do = %d, want 7", v)
			}
		}},
	} {
		if got := testing.AllocsPerRun(runs, pin.op); got != pin.want {
			t.Errorf("%s: %.0f allocs/op, want %.0f", pin.name, got, pin.want)
		}
	}
	if st := tm.Stats(); st.L2Hits != runs+1 || st.Computes != 1 {
		t.Errorf("tiered stats %+v, want %d L2 hits and 1 compute", st, runs+1)
	}
}
