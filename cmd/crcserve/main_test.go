package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"compreuse"
	"compreuse/internal/core"
	"compreuse/internal/obs"
)

// syncBuf collects the server's log lines from concurrent writers.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCrcserve boots the real binary's run function once and drives the
// ISSUE's three acceptance properties against it in order, ending with
// the SIGTERM drain (which stops the server).
func TestCrcserve(t *testing.T) {
	logs := &syncBuf{}
	addrCh := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-http", "127.0.0.1:0",
			"-gov-window", "64",
			"-gov-probation", "1000000", // keep BYPASS sticky for the test
			"-drain", "2s",
		}, logs, func(a net.Addr) { addrCh <- a })
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-runErr:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	// Acceptance 1: overlapping key streams from >= 4 independent
	// clients (4 fleet members × 2 conns each) produce shared reuse —
	// aggregate server-side hit rate above zero.
	t.Run("SharedReuse", func(t *testing.T) {
		rep, err := loadgenRun([]string{
			"-addr", addr,
			"-fleet", "4", "-workers", "2", "-conns", "2",
			"-dur", "500ms", "-keys", "64",
			// Expensive enough that formula 3 keeps the segment admitted
			// on a loopback RTT.
			"-cost", "500us",
			"-seg", "shared",
		}, io.Discard)
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		if rep.Errors != 0 {
			t.Fatalf("loadgen saw %d errors (ops %d)", rep.Errors, rep.Ops)
		}
		if rep.Ops == 0 || rep.Server.Probes == 0 {
			t.Fatalf("no traffic reached the server: %+v", rep)
		}
		if rep.Server.Hits == 0 {
			t.Fatalf("no shared reuse: %d probes, 0 hits (stored %d)",
				rep.Server.Probes, rep.Server.Distinct)
		}
		t.Logf("shared segment: %d/%d hits across 4 clients, RTT p50 %v p99 %v",
			rep.Server.Hits, rep.Server.Probes, rep.P50, rep.P99)
	})

	// Acceptance 2: a segment whose client-reported C is far below the
	// measured overhead O is driven to BYPASS by the governor.
	t.Run("GovernorBypassesCheapSegment", func(t *testing.T) {
		c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		seg, err := c.Segment("cheap", compreuse.SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		bypassed := false
		for i := 0; !bypassed && time.Now().Before(deadline); i++ {
			key := []byte(fmt.Sprintf("cheap-%03d", i%8))
			_, status, err := seg.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			switch status {
			case compreuse.Bypass:
				bypassed = true
			case compreuse.Miss:
				// C = 1ns: never worth a network round trip.
				if err := seg.Put(key, []uint64{uint64(i)}, time.Nanosecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !bypassed {
			st, _ := seg.Stats()
			t.Fatalf("governor never bypassed the cheap segment: %+v", st)
		}
		st, err := seg.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !st.BypassedNow {
			t.Fatalf("Get said bypass but stats disagree: %+v", st)
		}
		if !strings.Contains(logs.String(), "BYPASS cheap") {
			t.Errorf("decision was not logged; logs:\n%s", logs.String())
		}
	})

	// The metrics sidecar serves the decision ledger.
	t.Run("DecisionsEndpoint", func(t *testing.T) {
		m := regexp.MustCompile(`metrics on http://([^/\s]+)`).FindStringSubmatch(logs.String())
		if m == nil {
			t.Fatalf("no metrics address in logs:\n%s", logs.String())
		}
		resp, err := http.Get("http://" + m[1] + "/decisions")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /decisions: %s", resp.Status)
		}
		if !strings.Contains(string(body), `"BYPASS"`) {
			t.Errorf("decision ledger missing BYPASS entry: %s", body)
		}
	})

	// Acceptance 3: SIGTERM during a burst of in-flight requests drains
	// cleanly — every request already issued gets its response, and run
	// itself returns nil.
	t.Run("SigtermDrain", func(t *testing.T) {
		c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: addr, Conns: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		seg, err := c.Segment("drain", compreuse.SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}

		const inflight = 64
		var failed atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < inflight; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				key := []byte(fmt.Sprintf("drain-%04d", i))
				if _, _, err := seg.Get(key); err != nil {
					failed.Add(1)
					t.Logf("get %d: %v", i, err)
				}
			}(i)
		}
		close(start)
		// Let the burst reach the wire, then deliver the signal.
		time.Sleep(2 * time.Millisecond)
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if n := failed.Load(); n != 0 {
			t.Fatalf("%d of %d in-flight requests dropped during drain", n, inflight)
		}

		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("run returned %v after SIGTERM", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not exit after SIGTERM")
		}
		if !strings.Contains(logs.String(), "clean drain") {
			t.Errorf("drain not logged; logs:\n%s", logs.String())
		}
	})
}

// TestCrcservePriors boots the server with a decision-ledger priors
// file and cold probation: the segment whose static estimate predicts
// R̂·C − O > 0 serves a remote hit on its first repeat, while a segment
// the ledger never saw sits in probationary bypass.
func TestCrcservePriors(t *testing.T) {
	ledger := []core.DecisionRecord{
		{
			Segment: "hotseg", Eligible: true,
			StaticReuseRate: 0.9, StaticClass: "scalar-int",
			StaticC: 100_000, StaticO: 50,
		},
		{
			Segment: "lossseg", Eligible: true,
			StaticReuseRate: 0.0, StaticClass: "streaming",
			StaticC: 100, StaticO: 50,
		},
	}
	data, err := json.Marshal(ledger)
	if err != nil {
		t.Fatal(err)
	}
	priorsPath := t.TempDir() + "/priors.json"
	if err := os.WriteFile(priorsPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	logs := &syncBuf{}
	addrCh := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-http", "127.0.0.1:0",
			"-priors", priorsPath,
			"-cold-probation",
			"-gov-probation", "1000000", // probation must not expire mid-test
			"-q",
		}, logs, func(a net.Addr) { addrCh <- a })
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-runErr:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	if !strings.Contains(logs.String(), "admission priors") {
		t.Errorf("priors load not logged; logs:\n%s", logs.String())
	}

	c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Prior-admitted segment: PUT then immediate remote hit, long
	// before any probation window could have readmitted it.
	hot, err := c.Segment("hotseg", compreuse.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("priors-key-1")
	if err := hot.Put(k, []uint64{7}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, status, err := hot.Get(k); err != nil || status != compreuse.Hit {
		t.Fatalf("prior-admitted segment: status %v err %v, want hit", status, err)
	}

	// Unknown and predicted-lossy segments both start bypassed.
	for _, name := range []string{"unknownseg", "lossseg"} {
		seg, err := c.Segment(name, compreuse.SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, status, err := seg.Get(k); err != nil || status != compreuse.Bypass {
			t.Fatalf("%s: status %v err %v, want probationary bypass", name, status, err)
		}
	}

	// The /decisions ledger surfaces the prior admission and the
	// cold-probation bypasses.
	m := regexp.MustCompile(`metrics on http://([^/\s]+)`).FindStringSubmatch(logs.String())
	if m == nil {
		t.Fatalf("no metrics address in logs:\n%s", logs.String())
	}
	resp, err := http.Get("http://" + m[1] + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"PRIOR"`) || !strings.Contains(string(body), "hotseg") {
		t.Errorf("/decisions missing PRIOR admission: %s", body)
	}
	if !strings.Contains(string(body), `"BYPASS"`) {
		t.Errorf("/decisions missing cold-probation BYPASS: %s", body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestLoadgenSmoke is the CI smoke test: a short real-traffic run
// against a fresh server must produce nonzero shared hits and a clean
// drain, all under the race detector.
func TestLoadgenSmoke(t *testing.T) {
	logs := &syncBuf{}
	addrCh := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-addr", "127.0.0.1:0", "-http", "", "-q"},
			logs, func(a net.Addr) { addrCh <- a })
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	dur := "2s"
	if testing.Short() {
		dur = "300ms"
	}
	rep, err := loadgenRun([]string{
		"-addr", addr, "-dur", dur, "-keys", "256", "-cost", "200us",
	}, io.Discard)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	rep.print(&testWriter{t})
	if rep.Server.Hits == 0 {
		t.Fatalf("smoke traffic produced no hits: %+v", rep.Server)
	}
	if rep.Errors != 0 {
		t.Fatalf("smoke traffic saw %d errors", rep.Errors)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestTraceSmoke is the CI tracing smoke test: loadgen with -trace 1
// against an in-process server must produce at least one stitched
// multi-hop trace — a client root span plus a server span sharing the
// trace id — both in the report and at the /traces endpoint, and the
// node's /fleet.json must serve a merged snapshot.
func TestTraceSmoke(t *testing.T) {
	defer obs.DisableTrace()
	logs := &syncBuf{}
	addrCh := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-q"},
			logs, func(a net.Addr) { addrCh <- a })
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	dur := "500ms"
	if testing.Short() {
		dur = "200ms"
	}
	rep, err := loadgenRun([]string{
		"-addr", addr, "-dur", dur, "-keys", "128", "-cost", "50us",
		"-fleet", "2", "-workers", "2", "-trace", "1",
	}, io.Discard)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	rep.print(&testWriter{t})
	if rep.Errors != 0 {
		t.Fatalf("traced traffic saw %d errors", rep.Errors)
	}
	// The server runs in this process, so its srv.* spans share the ring
	// with the client roots: the traces must stitch.
	if rep.Stitched == 0 {
		t.Fatalf("no stitched traces: report %+v", rep)
	}

	m := regexp.MustCompile(`metrics on http://([^/\s]+)`).FindStringSubmatch(logs.String())
	if m == nil {
		t.Fatalf("no metrics address in logs:\n%s", logs.String())
	}

	// /traces serves the span ring as JSON; re-check stitching from the
	// scraped payload, exactly as an operator would.
	resp, err := http.Get("http://" + m[1] + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Enabled bool `json:"enabled"`
		Spans   []struct {
			Trace string `json:"trace"`
			Kind  string `json:"kind"`
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		} `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /traces: %v", err)
	}
	if !page.Enabled || len(page.Spans) == 0 {
		t.Fatalf("/traces: enabled=%v spans=%d, want enabled with spans",
			page.Enabled, len(page.Spans))
	}
	kinds := map[string]map[string]bool{} // trace id -> kinds present
	for _, s := range page.Spans {
		if s.DurNS < 0 {
			t.Errorf("span %s %s has negative duration %d", s.Trace, s.Name, s.DurNS)
		}
		if kinds[s.Trace] == nil {
			kinds[s.Trace] = map[string]bool{}
		}
		kinds[s.Trace][s.Kind] = true
	}
	stitched := 0
	for _, k := range kinds {
		if k["root"] && k["server"] {
			stitched++
		}
	}
	if stitched == 0 {
		t.Fatalf("/traces has %d spans but no trace with both root and server kinds", len(page.Spans))
	}
	t.Logf("/traces: %d spans, %d stitched traces", len(page.Spans), stitched)

	// /fleet.json with no -peers is this node's own merged snapshot.
	resp, err = http.Get("http://" + m[1] + "/fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var fleet struct {
		Self   string `json:"self"`
		Merged struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"merged"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fleet)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /fleet.json: %v", err)
	}
	if fleet.Self == "" {
		t.Error("/fleet.json missing self address")
	}
	if len(fleet.Merged.Counters) == 0 {
		t.Error("/fleet.json merged snapshot has no counters")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

type testWriter struct{ t *testing.T }

func (w *testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestParsePriorRecords accepts all three JSON shapes a deployment has
// at hand: the bare ledger array, the /decisions document, and the full
// `crcbench -json` export.
func TestParsePriorRecords(t *testing.T) {
	rec := core.DecisionRecord{Segment: "s@func", Eligible: true, StaticReuseRate: 0.8}
	bare, err := json.Marshal([]core.DecisionRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	decisions, err := json.Marshal(map[string][]core.DecisionRecord{"P/O0": {rec}})
	if err != nil {
		t.Fatal(err)
	}
	export, err := json.Marshal(map[string]any{
		"schema": "crcbench/2",
		"runs":   map[string]any{"P/O0": map[string]any{"ledger": []core.DecisionRecord{rec}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// crcbench/3 adds the dep-key ledger fields; priors from a PR-9-era
	// crcbench/2 file and from a current export must both keep loading.
	rec3 := rec
	rec3.DepKeyWidth = 8
	rec3.FullKeyWidth = 1448
	rec3.DepHitRate = 0.5
	export3, err := json.Marshal(map[string]any{
		"schema": "crcbench/3",
		"runs":   map[string]any{"P/O0": map[string]any{"ledger": []core.DecisionRecord{rec3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"bare-array": bare, "decisions-doc": decisions, "crcbench-export": export,
		"crcbench3-export": export3,
	} {
		recs, err := parsePriorRecords(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(recs) != 1 || recs[0].Segment != "s@func" || recs[0].StaticReuseRate != 0.8 {
			t.Errorf("%s: parsed %+v", name, recs)
		}
	}
	if _, err := parsePriorRecords([]byte(`"nope"`)); err == nil {
		t.Error("non-ledger JSON did not error")
	}
}
