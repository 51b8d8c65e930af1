package compreuse

import "sync"

// flight is one leader's computation of a key hash, in the air until it
// lands. done is made only once a follower joins, so a miss nobody
// waits on pays for the flight alone.
type flight struct {
	h      uint64
	done   chan struct{}
	landed bool
}

// flightTable is the singleflight of every memo in the package:
// concurrent misses on one key hash wait for a single leader, then
// re-probe their own table. A follower never adopts the leader's value
// — a result depends only on what the table holds — and a follower that
// still misses (the leader panicked, a Reset raced it, or two keys
// share a hash) runs without a flight of its own, so it costs a
// duplicate compute, never a wrong result or a second wait. The table
// has no lock: each memo guards it with the lock of its own table.
type flightTable map[uint64]*flight

// join registers the caller as h's leader and returns its flight or,
// when a flight for h is already in the air, returns the channel that
// closes when that flight lands.
func (t *flightTable) join(h uint64) (*flight, <-chan struct{}) {
	if f := (*t)[h]; f != nil {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		return nil, f.done
	}
	if *t == nil {
		*t = flightTable{}
	}
	f := &flight{h: h}
	(*t)[h] = f
	return f, nil
}

// land ends flight f (nil for a caller without one) and wakes its
// followers.
func (t flightTable) land(f *flight) {
	if f == nil || f.landed {
		return
	}
	f.landed = true
	delete(t, f.h)
	if f.done != nil {
		close(f.done)
	}
}

// release lands f under mu unless its leader already has. A leader
// defers it, so a panic still frees the followers and then propagates.
// Only a flight's leader lands it, so landed is read without mu.
func (t *flightTable) release(mu sync.Locker, f *flight) {
	if f != nil && !f.landed {
		mu.Lock()
		t.land(f)
		mu.Unlock()
	}
}
