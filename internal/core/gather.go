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
// streams of one algorithm through one keyed 64-lane cipher. ReadWindow
// returns exactly the bytes NewSegmentReader would; it is safe for
// concurrent use, and concurrent callers share passes.
type WindowSource struct {
	seed   uint64
	c      *laneCipher     // driven only by the leader
	onPass func(lanes int) // nil-able; lanes = segments the pass served

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

// passScratch is the private lane buffers and bookkeeping of one
// gathered pass. One process-wide free list serves every WindowSource:
// only leaders hold a scratch, and only while they run passes, so the
// list holds at most one scratch per source that ever led concurrently
// with another. (A free list rather than a sync.Pool: the race detector
// makes a Pool drop items at random.)
type passScratch struct {
	priv  [passLanes][]byte // SegmentBytes each, one backing array
	cur   [passLanes][]byte // pass destination per lane: priv or a caller's segment
	slots [passLanes]windowSlot
}

// windowSlot is the demand lane l of a pass serves: bytes
// [within, within+len(dst)) of segment seg of the req's domain. last
// marks the slot that completed its request.
type windowSlot struct {
	req    *windowReq
	seg    uint64
	within int
	dst    []byte
	last   bool
}

var passScratches = struct {
	sync.Mutex
	free []*passScratch
}{}

func getPassScratch() *passScratch {
	passScratches.Lock()
	defer passScratches.Unlock()
	if n := len(passScratches.free); n > 0 {
		ps := passScratches.free[n-1]
		passScratches.free = passScratches.free[:n-1]
		return ps
	}
	ps := new(passScratch)
	backing := make([]byte, passLanes*SegmentBytes)
	for l := range ps.priv {
		ps.priv[l] = backing[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	return ps
}

func putPassScratch(ps *passScratch) {
	clear(ps.cur[:]) // drop references to callers' buffers
	passScratches.Lock()
	passScratches.free = append(passScratches.free, ps)
	passScratches.Unlock()
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
	c, err := newCipher(alg, func(c *laneCipher) {
		for l := range passLanes {
			c.key(l, seed, 0, uint64(l))
		}
	})
	if err != nil {
		return nil, err
	}
	return &WindowSource{seed: seed, c: c, onPass: onPass}, nil
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
	ps := getPassScratch()
	defer putPassScratch(ps)
	for {
		if ws.testHookPass != nil {
			ws.testHookPass()
		}
		ws.mu.Lock()
		n := ws.gather(ps)
		ws.mu.Unlock()

		ws.runPass(ps, n)
		if ws.onPass != nil {
			ws.onPass(n)
		}

		ws.mu.Lock()
		for i := range ps.slots[:n] {
			s := &ps.slots[i]
			s.req.left--
			s.last = s.req.left == 0 && s.req != me
		}
		finished := me.left == 0
		var next *windowReq
		if finished {
			if len(ws.pending) > 0 {
				next = ws.pending[0]
			} else {
				ws.leading = false
			}
		}
		ws.mu.Unlock()

		// Each wake channel gets exactly one message, so these sends
		// never block.
		for i := range ps.slots[:n] {
			if ps.slots[i].last {
				ps.slots[i].req.wake <- false
			}
			ps.slots[i] = windowSlot{}
		}
		if finished {
			if next != nil {
				next.wake <- true
			}
			return
		}
	}
}

// gather moves the oldest ≤64 pending segment demands into ps's slots
// and returns how many it took. Requests whose every demand is taken
// leave the pending queue. Called with ws.mu held.
func (ws *WindowSource) gather(ps *passScratch) int {
	n, done := 0, 0
	for _, r := range ws.pending {
		for r.next < r.end && n < passLanes {
			seg, within := r.next/SegmentBytes, r.next%SegmentBytes
			k := min(r.end-r.next, SegmentBytes-within)
			o := r.next - r.offset
			ps.slots[n] = windowSlot{req: r, seg: seg, within: int(within), dst: r.p[o : o+k]}
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

// runPass keys lane l for slot l's segment, runs one lock-step pass and
// delivers each slot's slice. A slot covering a whole segment is filled
// in place in its caller's buffer; the rest are copied out of the
// private buffers. Lanes past n keep stale material and their output is
// discarded.
func (ws *WindowSource) runPass(ps *passScratch, n int) {
	for l := 0; l < passLanes; l++ {
		ps.cur[l] = ps.priv[l]
		if l >= n {
			continue
		}
		s := &ps.slots[l]
		ws.c.key(l, ws.seed, s.req.domain, s.seg)
		if len(s.dst) == SegmentBytes {
			ps.cur[l] = s.dst
		}
	}
	ws.c.rekey()
	ws.c.pass(&ps.cur)
	for l := range ps.slots[:n] {
		s := &ps.slots[l]
		if len(s.dst) != SegmentBytes {
			copy(s.dst, ps.priv[l][s.within:])
		}
	}
}
