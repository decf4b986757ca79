package core

import (
	"errors"
	"sync"
)

// Gathered passes. The lanes of a bitsliced word are independent cipher
// instances, and segment j of a (seed, domain) stream depends only on
// (seed, domain, j) — so nothing ties the 64 lanes of one pass to 64
// consecutive segments of one stream. A WindowSource keys each lane for
// whatever segment some caller is waiting on, and one pass serves the
// windows of every concurrent caller at once: a 4 KiB window no longer
// costs a whole 64-segment pass of its own.
//
// Combining is caller-driven, under one mutex and one condition
// variable. A caller queues its segment demands, then waits until its
// window is written; whenever no pass is running, the waiting caller
// that takes the lock runs the next one. A pass takes the oldest ≤64
// pending demands, runs unlocked, copies each lane's slice into its
// caller's buffer, and under the lock again releases its slots, counts
// its demands served and broadcasts to every waiter. No goroutine,
// timer or batching delay is involved: a lone caller runs its passes
// immediately.
//
// Passes run one at a time and gather oldest first, so demands are
// served in the order they were queued: a caller's window is written
// once the served count reaches the queued count its own demands
// brought it to. No call needs a completion record of its own.
//
// A batch is one run of the pass runner, which picks its kernel by the
// one-lane rule it applies to every owner (oneMaxFor): a sparse batch
// runs one lane at a time, each demand's segment generated alone by the
// engine's one-lane function, and a fuller one runs one 64-lane pass.
// The bytes are the same either way, since every lane is an independent
// instance keyed by PRF(seed, domain, segment).

// WindowSource serves byte windows of the canonical (seed, domain)
// streams of one algorithm through one pass runner. ReadWindow returns
// exactly the bytes NewSegmentReader would; it is safe for concurrent
// use, and concurrent callers share passes.
type WindowSource struct {
	seed   uint64
	onPass func(n int, oneLane bool) // nil-able; n = segments the batch served

	// The running pass's: one pass runs at a time, so the source's own
	// runner and slots are all the scratch a pass needs.
	r     *passRunner
	slots [passLanes]windowSlot // the demand each lane of the pass serves

	mu      sync.Mutex
	done    sync.Cond   // on mu; broadcast when a pass ends
	pending []windowReq // callers with demands not yet in a pass, oldest first
	running bool        // a pass is running: it owns r and slots
	queued  uint64      // segment demands ever queued
	served  uint64      // segment demands ever served: the oldest ones

	// testHookPass, when set, runs unlocked before each pass gathers.
	testHookPass func()
}

// windowReq is what a ReadWindow call has not yet put in a pass: the
// bytes [next, next+len(p)) of the domain stream, which go to p.
type windowReq struct {
	p            []byte
	domain, next uint64
}

// windowSlot is the demand lane l of a pass serves: bytes
// [within, within+len(dst)) of segment seg of the domain stream.
type windowSlot struct {
	domain uint64
	seg    uint64
	within int
	dst    []byte
}

// errWindowRange rejects a window that reaches past the addressable
// segments (see maxSegmentIndex).
var errWindowRange = errors.New("core: window reaches past the last addressable segment")

// NewWindowSource builds the gathered-pass source of alg's streams under
// seed. onPass, when non-nil, is called after every gathered batch with
// the number of segment demands it served, and whether it served them
// one lane at a time (oneLane) or as the lanes of one 64-lane pass.
func NewWindowSource(alg Algorithm, seed uint64, onPass func(n int, oneLane bool)) (*WindowSource, error) {
	// Construction keys lane l for segment l of domain 0; every pass
	// rekeys the lanes it uses.
	r, err := newPassRunner(alg, func(r *passRunner) {
		for l := range passLanes {
			r.key(l, seed, 0, uint64(l))
		}
	})
	if err != nil {
		return nil, err
	}
	ws := &WindowSource{seed: seed, r: r, onPass: onPass, pending: make([]windowReq, 0, passLanes)}
	ws.done.L = &ws.mu
	return ws, nil
}

// ReadWindow fills p with bytes [offset, offset+len(p)) of the canonical
// (seed, domain) stream. It returns once p is written.
func (ws *WindowSource) ReadWindow(p []byte, domain, offset uint64) error {
	if len(p) == 0 {
		return nil
	}
	end := offset + uint64(len(p))
	if offset/SegmentBytes >= maxSegmentIndex || (end-1)/SegmentBytes >= maxSegmentIndex {
		return errWindowRange
	}
	ws.mu.Lock()
	ws.pending = append(ws.pending, windowReq{p: p, domain: domain, next: offset})
	ws.queued += (end-1)/SegmentBytes - offset/SegmentBytes + 1
	for mine := ws.queued; ws.served < mine; {
		if ws.running {
			ws.done.Wait()
		} else {
			ws.pass()
		}
	}
	ws.mu.Unlock()
	return nil
}

// pass serves the oldest ≤64 pending demands, which need not be the
// caller's own, through one run of the pass runner. Called with ws.mu
// held and no pass running; it unlocks while the pass runs and returns
// with ws.mu held again.
func (ws *WindowSource) pass() {
	ws.running = true
	if ws.testHookPass != nil {
		ws.mu.Unlock()
		ws.testHookPass()
		ws.mu.Lock()
	}
	n := ws.gather()
	ws.mu.Unlock()

	// Lane l serves slot l: a slot covering a whole segment is written
	// in place in its caller's buffer, the rest are copied out of the
	// private buffers.
	for l := range ws.slots[:n] {
		s := &ws.slots[l]
		ws.r.key(l, ws.seed, s.domain, s.seg)
		ws.r.aim(l, s.dst, s.within)
	}
	oneLane := ws.r.run(n)
	for l := range ws.slots[:n] {
		if s := &ws.slots[l]; len(s.dst) != SegmentBytes {
			copy(s.dst, ws.r.priv[l][s.within:])
		}
	}
	if ws.onPass != nil {
		ws.onPass(n, oneLane)
	}

	// The slots are released in the critical section that ends the
	// pass, so the next pass never gathers into slots still in use.
	ws.mu.Lock()
	clear(ws.slots[:n])
	ws.served += uint64(n)
	ws.running = false
	ws.done.Broadcast()
}

// gather moves the oldest ≤64 pending segment demands into the slots
// and returns how many it took. Requests whose every demand is taken
// leave the pending queue. Called with ws.mu held.
func (ws *WindowSource) gather() int {
	n, done := 0, 0
	for i := range ws.pending {
		r := &ws.pending[i]
		for len(r.p) > 0 && n < passLanes {
			seg, within := r.next/SegmentBytes, r.next%SegmentBytes
			k := min(len(r.p), SegmentBytes-int(within))
			ws.slots[n] = windowSlot{domain: r.domain, seg: seg, within: int(within), dst: r.p[:k]}
			r.p, r.next = r.p[k:], r.next+uint64(k)
			n++
		}
		if len(r.p) > 0 {
			break
		}
		done++
	}
	k := copy(ws.pending, ws.pending[done:])
	clear(ws.pending[k:])
	ws.pending = ws.pending[:k]
	return n
}
