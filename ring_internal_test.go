package compreuse

import (
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"compreuse/internal/reused"
)

// TestRingBalance is the regression for a real routing collapse: raw
// FNV-1a over short, similar strings (sequential keys; a node's vnode
// counter) leaves the high bits nearly constant, so every hash landed
// inside one ring arc and a single node owned the whole key space. The
// mix64 finalizer must keep both the primary and the first-replica
// assignment roughly uniform for adversarially-similar inputs.
func TestRingBalance(t *testing.T) {
	c := &Client{}
	// Realistic worst case: same host, nearby ports — the exact address
	// shape an in-process fleet or a single-box deployment produces.
	addrs := []string{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"}
	for i, a := range addrs {
		c.node = append(c.node, &ringNode{addr: a})
		for v := 0; v < virtualNodes; v++ {
			c.ring = append(c.ring, ringPoint{hash: ringHash(a, v), node: i})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })

	const keys = 3000
	var primary, replica [3]int
	var scratch [8]int
	for i := 0; i < keys; i++ {
		nodes := c.route(keyHash("seg", []byte(fmt.Sprintf("key-%08d", i))), 2, scratch[:0])
		if len(nodes) != 2 || nodes[0] == nodes[1] {
			t.Fatalf("route returned %v, want 2 distinct nodes", nodes)
		}
		primary[nodes[0]]++
		replica[nodes[1]]++
	}
	// Uniform would be 1000 per node; demand every node carries at least
	// a third of its fair share in both roles. The broken hash gave 0.
	for i := range addrs {
		if primary[i] < keys/9 {
			t.Errorf("node %d owns %d/%d primaries (distribution %v): ring collapsed",
				i, primary[i], keys, primary)
		}
		if replica[i] < keys/9 {
			t.Errorf("node %d holds %d/%d replicas (distribution %v): ring collapsed",
				i, replica[i], keys, replica)
		}
	}
}

// TestRedialAfterCloseLeaksNoClient is the regression for a background
// redial racing Close: a dial already in flight when Close cleared the
// node used to store its fresh client afterwards, leaving live conns and
// goroutines nobody would ever close. The race is forced by marking the
// client closed while its close channel stays open, so redial dials a
// live server after Close has (logically) run.
func TestRedialAfterCloseLeaksNoClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := reused.New(reused.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	addr := ln.Addr().String()
	c := &Client{cfg: ClientConfig{Addr: addr, RedialEvery: time.Millisecond},
		closeCh: make(chan struct{})}
	n := &ringNode{addr: addr, up: nodeUpGauge(addr), fo: nodeFailoverCounter(addr)}
	c.node = []*ringNode{n}
	n.down.Store(true)
	n.redialing = true

	c.closed.Store(true)
	c.wg.Add(1)
	c.redial(n)

	if nc := n.c.Load(); nc != nil {
		nc.close()
		t.Fatal("redial stored a live client into a closed Client")
	}
	close(c.closeCh)
}
