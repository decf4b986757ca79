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
// Combining is caller-driven. The first caller to find no pass running
// becomes the leader: it packs the oldest ≤64 pending segment demands
// into a pass, runs it, copies each lane's slice into its caller's
// buffer, and repeats. The leader's own demands are always the oldest,
// so it finishes after its own passes and hands leadership to the oldest
// caller still waiting; it never serves others indefinitely. No
// goroutine, timer or batching delay is involved: a lone caller runs its
// passes immediately.

// WindowSource serves byte windows of the canonical (seed, domain)
// streams of one algorithm through one pass runner. ReadWindow returns
// exactly the bytes NewSegmentReader would; it is safe for concurrent
// use, and concurrent callers share passes.
type WindowSource struct {
	seed   uint64
	onPass func(lanes int) // nil-able; lanes = segments the pass served

	// The leader's: only the caller leading runs passes, so the
	// source's own runner and slots are all the scratch a pass needs.
	r     *passRunner
	slots [passLanes]windowSlot // the demand each lane of the pass serves

	mu      sync.Mutex
	pending []*windowReq // callers with demands not yet in a pass, oldest first
	leading bool         // some caller is running passes
	free    []*windowReq // request records of finished calls, for reuse

	// testHookPass, when set, runs before the leader gathers each pass.
	testHookPass func()
}

// windowReq is one ReadWindow call: the bytes [next, end) of the
// (domain) stream are not yet in a pass; left segments are not yet
// written into p.
type windowReq struct {
	p              []byte
	domain, offset uint64
	next, end      uint64
	left           int
	// wake carries one message to a waiting caller: true hands it
	// leadership, false reports its window written.
	wake chan bool
}

// windowSlot is the demand lane l of a pass serves: bytes
// [within, within+len(dst)) of segment seg of the req's domain.
type windowSlot struct {
	req    *windowReq
	seg    uint64
	within int
	dst    []byte
}

// errWindowRange rejects a window that reaches past the addressable
// segments (see maxSegmentIndex).
var errWindowRange = errors.New("core: window reaches past the last addressable segment")

// NewWindowSource builds the gathered-pass source of alg's streams under
// seed. onPass, when non-nil, is called after every pass with the number
// of lanes that served a demand.
func NewWindowSource(alg Algorithm, seed uint64, onPass func(lanes int)) (*WindowSource, error) {
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
	return &WindowSource{seed: seed, r: r, onPass: onPass}, nil
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
	var r *windowReq
	if n := len(ws.free); n > 0 {
		r, ws.free = ws.free[n-1], ws.free[:n-1]
	} else {
		r = &windowReq{wake: make(chan bool, 1)}
	}
	r.p, r.domain, r.offset, r.next, r.end = p, domain, offset, offset, end
	r.left = int((end-1)/SegmentBytes - offset/SegmentBytes + 1)
	ws.pending = append(ws.pending, r)
	lead := !ws.leading
	ws.leading = true
	ws.mu.Unlock()
	if lead || <-r.wake {
		ws.lead(r)
	}
	r.p = nil
	ws.mu.Lock()
	ws.free = append(ws.free, r)
	ws.mu.Unlock()
	return nil
}

// lead runs passes until me's window is written, then hands leadership
// to the oldest waiting caller. me is the oldest pending request when
// lead begins, so its demands go first.
func (ws *WindowSource) lead(me *windowReq) {
	for {
		if ws.testHookPass != nil {
			ws.testHookPass()
		}
		ws.mu.Lock()
		n := ws.gather()
		ws.mu.Unlock()

		// Lane l serves slot l: a slot covering a whole segment is
		// filled in place in its caller's buffer, the rest are copied
		// out of the private buffers. Lanes past n are not keyed.
		for l := range ws.slots[:n] {
			s := &ws.slots[l]
			ws.r.key(l, ws.seed, s.req.domain, s.seg)
			ws.r.aim(l, s.dst)
		}
		ws.r.run()
		for l := range ws.slots[:n] {
			if s := &ws.slots[l]; len(s.dst) != SegmentBytes {
				copy(s.dst, ws.r.priv[l][s.within:])
			}
		}
		if ws.onPass != nil {
			ws.onPass(n)
		}

		// The slots are released before leadership is, so a new leader
		// never gathers into slots this one is still clearing. Each
		// wake channel gets exactly one message, so the sends never
		// block.
		ws.mu.Lock()
		for i := range ws.slots[:n] {
			s := &ws.slots[i]
			if s.req.left--; s.req.left == 0 && s.req != me {
				s.req.wake <- false
			}
			*s = windowSlot{}
		}
		finished := me.left == 0
		if finished && len(ws.pending) > 0 {
			ws.pending[0].wake <- true
		} else if finished {
			ws.leading = false
		}
		ws.mu.Unlock()
		if finished {
			return
		}
	}
}

// gather moves the oldest ≤64 pending segment demands into the slots
// and returns how many it took. Requests whose every demand is taken
// leave the pending queue. Called with ws.mu held.
func (ws *WindowSource) gather() int {
	n, done := 0, 0
	for _, r := range ws.pending {
		for r.next < r.end && n < passLanes {
			seg, within := r.next/SegmentBytes, r.next%SegmentBytes
			k := min(r.end-r.next, SegmentBytes-within)
			o := r.next - r.offset
			ws.slots[n] = windowSlot{req: r, seg: seg, within: int(within), dst: r.p[o : o+k]}
			r.next += k
			n++
		}
		if r.next < r.end {
			break
		}
		done++
	}
	k := copy(ws.pending, ws.pending[done:])
	clear(ws.pending[k:])
	ws.pending = ws.pending[:k]
	return n
}
