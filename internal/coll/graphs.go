package coll

import (
	"fmt"
	"math/bits"

	"lci/internal/base"
	"lci/internal/comp"
	"lci/internal/core"
)

// Algorithm names accepted by the selection layer (core.Options.
// CollAlgorithm, public lci.WithCollAlgorithm). An empty name picks by
// message size and rank count.
const (
	// AlgDissemination is the barrier's dissemination algorithm.
	AlgDissemination = "dissemination"
	// AlgFlat is the flat (star) algorithm: the root exchanges directly
	// with every rank. Broadcast, reduce and allgather; small rank counts
	// and small messages.
	AlgFlat = "flat"
	// AlgBinomial is the binomial tree. Broadcast and reduce.
	AlgBinomial = "binomial"
	// AlgRDouble is recursive doubling. Allreduce; power-of-two rank
	// counts and small messages.
	AlgRDouble = "rdouble"
	// AlgReduceBcast stitches a binomial reduce to rank 0 with a binomial
	// broadcast. Allreduce; any rank count.
	AlgReduceBcast = "redbcast"
	// AlgRing is the ring algorithm. Allgather.
	AlgRing = "ring"
)

// Selection cutoffs: flat algorithms win while the root's fan-out is
// trivial; recursive doubling wins while whole-message exchanges stay
// eager-sized.
const (
	flatRankCutoff    = 4
	flatSizeCutoff    = 4096
	rdoubleSizeCutoff = 8192
)

// pickTree is the shared flat-vs-binomial selection used by broadcast
// and reduce (what names the collective in errors).
func pickTree(what, forced string, n, size int) (string, error) {
	switch forced {
	case "":
		if n <= flatRankCutoff && size <= flatSizeCutoff {
			return AlgFlat, nil
		}
		return AlgBinomial, nil
	case AlgFlat, AlgBinomial:
		return forced, nil
	default:
		return "", fmt.Errorf("%w: %s algorithm %q (want %q or %q)", core.ErrInvalidArgument, what, forced, AlgFlat, AlgBinomial)
	}
}

func pickBcast(forced string, n, size int) (string, error) {
	return pickTree("broadcast", forced, n, size)
}

func pickReduce(forced string, n, size int) (string, error) {
	return pickTree("reduce", forced, n, size)
}

func pickAllreduce(forced string, n, size int) (string, error) {
	pow2 := n&(n-1) == 0
	switch forced {
	case "":
		if pow2 && size <= rdoubleSizeCutoff {
			return AlgRDouble, nil
		}
		return AlgReduceBcast, nil
	case AlgRDouble:
		if !pow2 {
			return "", fmt.Errorf("%w: recursive doubling needs a power-of-two rank count, got %d", core.ErrInvalidArgument, n)
		}
		return forced, nil
	case AlgReduceBcast:
		return forced, nil
	default:
		return "", fmt.Errorf("%w: allreduce algorithm %q (want %q or %q)", core.ErrInvalidArgument, forced, AlgRDouble, AlgReduceBcast)
	}
}

func pickAllgather(forced string, n, size int) (string, error) {
	// The ring needs n-1 distinct round tags; flat uses a single round
	// (matching keys on source rank), so it works at any rank count.
	ringOK := n-1 <= maxRounds
	switch forced {
	case "":
		if (n <= flatRankCutoff && size <= flatSizeCutoff) || !ringOK {
			return AlgFlat, nil
		}
		return AlgRing, nil
	case AlgFlat:
		return forced, nil
	case AlgRing:
		if !ringOK {
			return "", fmt.Errorf("%w: ring allgather supports at most %d ranks (tag-window rounds)", core.ErrInvalidArgument, maxRounds+1)
		}
		return forced, nil
	default:
		return "", fmt.Errorf("%w: allgather algorithm %q (want %q or %q)", core.ErrInvalidArgument, forced, AlgFlat, AlgRing)
	}
}

// pickBarrier exists for symmetry: dissemination is the only algorithm.
func pickBarrier(forced string) (string, error) {
	switch forced {
	case "", AlgDissemination:
		return AlgDissemination, nil
	default:
		return "", fmt.Errorf("%w: barrier algorithm %q (want %q)", core.ErrInvalidArgument, forced, AlgDissemination)
	}
}

// shape is what a collective's graph depends on, and so the key its
// instances are kept under: the kind, the algorithm, the root, and
// whether the call carries a resync-barrier prefix. Message size is not
// part of it — nodes address buffers through slots and round scratch
// grows on demand — so a size sweep relaunches one instance instead of
// building one per size. Rank count and rank are fixed per Comm.
type shape struct {
	kind   Kind
	alg    string
	root   int
	resync bool
}

// idleList holds a shape's finished instances.
type idleList struct{ free []*instance }

// instance is one completion graph, built for a shape on its first call
// and relaunched for every later call of it. The node closures read the
// current call from the frame fields, which newCall and frame rewrite
// before each launch. Fields outside the frame are fixed at build time
// or grow only.
type instance struct {
	c     *Comm
	key   shape
	g     *comp.Graph
	idle  *idleList
	tmp   [][]byte // round scratch, grown to the call's message size
	flags []byte   // barrier payload and landing bytes
	own   []byte   // accumulator of a non-root reduce that passed no recv

	// frame: the current call.
	h          *Handle
	o          core.Options
	epoch      int // the call's windowed epoch
	bepoch     int // the resync-barrier prefix's windowed epoch
	send, recv []byte
	cmb        func(dst, src []byte)
}

// acquire takes an idle instance of key's shape, building one if the
// shape has none.
func (c *Comm) acquire(key shape) *instance {
	l := c.idle[key]
	if l == nil {
		l = &idleList{}
		c.idle[key] = l
	}
	if n := len(l.free); n > 0 {
		in := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return in
	}
	return c.build(key, l)
}

// build constructs the graph of key's shape on this rank.
func (c *Comm) build(key shape, l *idleList) *instance {
	in := &instance{c: c, key: key, g: comp.NewGraph(), idle: l}
	b := &builder{in: in, n: c.rt.NumRanks(), me: c.rt.Rank()}
	if key.resync {
		b.entry = b.barrierRounds(true, nil)
	}
	switch key.kind {
	case KindBarrier:
		b.barrierRounds(false, b.entry)
	case KindBcast:
		b.bcast(key.root, key.alg, 0, b.entry)
	case KindReduce:
		b.reduce(key.root, key.alg, 0, b.entry)
	case KindAllreduce:
		b.allreduce(key.alg, b.entry)
	case KindAllgather:
		b.allgather(key.alg, b.entry)
	}
	return in
}

// frame points the instance at the call's buffers and combiner, sizing
// the round scratch to the message, and returns the call's handle.
func (in *instance) frame(send, recv []byte, cmb func(dst, src []byte)) *Handle {
	if recv == nil {
		in.own = grow(in.own, len(send))
		recv = in.own
	}
	in.send, in.recv, in.cmb = send, recv, cmb
	for i := range in.tmp {
		in.tmp[i] = grow(in.tmp[i], len(send))
	}
	return in.h
}

// release re-arms a finished instance and returns it to its idle list,
// dropping its references to the call's buffers.
func (in *instance) release() {
	in.g.Reset()
	in.h, in.send, in.recv, in.cmb = nil, nil, nil, nil
	in.o = core.Options{}
	in.idle.free = append(in.idle.free, in)
}

// grow returns b resized to n bytes, reallocating only when it is too
// small.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// buf resolves s against the current call.
func (in *instance) buf(s slot) []byte {
	switch s.kind {
	case slotSend:
		return in.send
	case slotRecv:
		return in.recv
	case slotBlock:
		bs := len(in.send)
		return in.recv[s.i*bs : (s.i+1)*bs]
	case slotTmp:
		return in.tmp[s.i]
	default:
		return in.flags[s.i : s.i+1]
	}
}

// tag resolves t against the current call's epochs.
func (in *instance) tag(t tagRef) int {
	if t.prefix {
		return tagFor(KindBarrier, in.bepoch, t.round)
	}
	return tagFor(in.key.kind, in.epoch, t.round)
}

// slot names a buffer a node reads or writes. Nodes are built once per
// shape and relaunched for every call of it, so they cannot capture a
// call's buffers; each holds a slot instead, which the instance resolves
// against the current call when the node fires.
type slot struct {
	kind uint8
	i    int
}

const (
	slotSend  = iota // the call's send buffer
	slotRecv         // the call's receive buffer: accumulator, or the broadcast buffer
	slotBlock        // allgather block i of the receive buffer
	slotTmp          // round scratch i
	slotFlag         // barrier byte i
)

// tagRef names a node's tag: a round of the call's own epoch, or of its
// resync-barrier prefix's epoch.
type tagRef struct {
	prefix bool
	round  int
}

// builder assembles a shape's graph once: node helpers wrap
// point-to-point posts in op nodes that resolve their buffer, tag and
// options from the instance's frame at post time, and deps wire the
// algorithm's partial order.
type builder struct {
	in    *instance
	n, me int
	entry []comp.NodeID // resync-barrier tails every entry node depends on
}

func (b *builder) tag(round int) tagRef { return tagRef{round: round} }

// tmp adds a round-scratch buffer, sized per call by instance.frame.
func (b *builder) tmp() slot {
	b.in.tmp = append(b.in.tmp, nil)
	return slot{slotTmp, len(b.in.tmp) - 1}
}

// flag adds a one-byte barrier buffer.
func (b *builder) flag() slot {
	b.in.flags = append(b.in.flags, 0)
	return slot{slotFlag, len(b.in.flags) - 1}
}

// send adds an op node posting a send of s to `to`.
func (b *builder) send(to int, t tagRef, s slot, deps []comp.NodeID) comp.NodeID {
	return b.op(b.in.c.rt.PostSend, to, t, s, deps)
}

// recv adds an op node posting a receive into s from `from`.
func (b *builder) recv(from int, t tagRef, s slot, deps []comp.NodeID) comp.NodeID {
	return b.op(b.in.c.rt.PostRecv, from, t, s, deps)
}

func (b *builder) op(post func(int, []byte, int, base.Comp, core.Options) (base.Status, error),
	peer int, t tagRef, s slot, deps []comp.NodeID) comp.NodeID {
	in := b.in
	id := in.g.AddOp(func(cm base.Comp) base.Status {
		st, err := post(peer, in.buf(s), in.tag(t), cm, in.o)
		if err != nil {
			return base.Status{State: base.Done}.WithErr(err)
		}
		return st
	})
	b.edges(id, deps)
	return id
}

// copyIn adds a node copying the send buffer into dst.
func (b *builder) copyIn(dst slot, deps []comp.NodeID) comp.NodeID {
	in := b.in
	return b.fn(func() { copy(in.buf(dst), in.send) }, deps)
}

// combine adds a node folding src into the accumulator.
func (b *builder) combine(src slot, deps []comp.NodeID) comp.NodeID {
	in := b.in
	return b.fn(func() { in.cmb(in.recv, in.buf(src)) }, deps)
}

func (b *builder) fn(f func(), deps []comp.NodeID) comp.NodeID {
	id := b.in.g.AddFunc(f)
	b.edges(id, deps)
	return id
}

// edges wires deps → id, falling back to the builder's entry deps (the
// resync barrier's tails) for nodes with no algorithmic predecessor.
func (b *builder) edges(id comp.NodeID, deps []comp.NodeID) {
	if deps == nil {
		deps = b.entry
	}
	for _, d := range deps {
		b.in.g.AddEdge(d, id)
	}
}

// barrierRounds adds the dissemination-barrier rounds, tagged in the
// call's own epoch or, for a resync prefix, in the prefix's barrier
// epoch: round k's send and receive depend on round k-1 (you may not
// announce round k before hearing round k-1). Returns the final round's
// nodes so callers can hang a collective off barrier completion.
func (b *builder) barrierRounds(prefix bool, deps []comp.NodeID) []comp.NodeID {
	n, me := b.n, b.me
	if n == 1 {
		return deps
	}
	prev := deps
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		t := tagRef{prefix: prefix, round: k}
		s := b.send((me+dist)%n, t, b.flag(), prev)
		r := b.recv((me-dist+n)%n, t, b.flag(), prev)
		prev = []comp.NodeID{s, r}
	}
	return prev
}

// bcast adds a broadcast of the receive buffer from root. roundBase
// offsets the tags so the stitched allreduce can share one epoch.
func (b *builder) bcast(root int, alg string, roundBase int, deps []comp.NodeID) {
	n, me := b.n, b.me
	buf := slot{kind: slotRecv}
	if n == 1 {
		return
	}
	if alg == AlgFlat {
		if me == root {
			for r := 0; r < n; r++ {
				if r != root {
					b.send(r, b.tag(roundBase), buf, deps)
				}
			}
		} else {
			b.recv(root, b.tag(roundBase), buf, deps)
		}
		return
	}
	// Binomial tree over virtual ranks rooted at 0: a rank receives from
	// its parent at its lowest set bit's round, then feeds its subtrees
	// in decreasing-mask order (all sends depend only on the receive).
	vr := (me - root + n) % n
	sendDeps := deps
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (vr - mask + root) % n
			r := b.recv(src, b.tag(roundBase+bits.TrailingZeros(uint(mask))), buf, deps)
			sendDeps = []comp.NodeID{r}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < n {
			dst := (vr + mask + root) % n
			b.send(dst, b.tag(roundBase+bits.TrailingZeros(uint(mask))), buf, sendDeps)
		}
	}
}

// reduce adds a reduction of the send buffer into the accumulator at
// root and returns its tail nodes (the root's last combine, a leaf's
// send to its parent) so the stitched allreduce can chain its broadcast
// behind them.
func (b *builder) reduce(root int, alg string, roundBase int, deps []comp.NodeID) []comp.NodeID {
	n, me := b.n, b.me
	acc := slot{kind: slotRecv}
	cp := b.copyIn(acc, deps)
	prev := []comp.NodeID{cp}
	if n == 1 {
		return prev
	}
	if alg == AlgFlat {
		if me != root {
			// The local contribution ships straight from send; the
			// accumulator only matters for the stitched broadcast, which
			// must not start before both the copy and the send.
			s := b.send(root, b.tag(roundBase), slot{kind: slotSend}, deps)
			return []comp.NodeID{cp, s}
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			tmp := b.tmp()
			rn := b.recv(r, b.tag(roundBase), tmp, deps)
			prev = []comp.NodeID{b.combine(tmp, []comp.NodeID{prev[0], rn})}
		}
		return prev
	}
	// Binomial gather over virtual ranks rooted at 0: while our bit at
	// mask is clear we fold in the subtree at vr|mask; the first set bit
	// sends the accumulator to the parent and retires. Receives post
	// immediately (tags disambiguate rounds); combines serialize on acc.
	vr := (me - root + n) % n
	round := 0
	for mask := 1; mask < n; mask, round = mask<<1, round+1 {
		if vr&mask == 0 {
			src := vr | mask
			if src >= n {
				continue
			}
			tmp := b.tmp()
			rn := b.recv((src+root)%n, b.tag(roundBase+round), tmp, deps)
			prev = []comp.NodeID{b.combine(tmp, []comp.NodeID{prev[0], rn})}
		} else {
			dst := (vr - mask + root) % n
			prev = []comp.NodeID{b.send(dst, b.tag(roundBase+round), acc, prev)}
			break
		}
	}
	return prev
}

// allreduce adds an all-reduce of the send buffer into the accumulator.
func (b *builder) allreduce(alg string, deps []comp.NodeID) {
	n, me := b.n, b.me
	if alg == AlgReduceBcast {
		tails := b.reduce(0, AlgBinomial, 0, deps)
		b.bcast(0, AlgBinomial, bcastRoundBase, tails)
		return
	}
	// Recursive doubling (power-of-two n): round k exchanges the running
	// accumulator with peer me^2^k and folds. The send must wait for the
	// previous fold (it ships acc); the receive posts immediately into
	// its own round buffer; the fold waits for both — the send, too,
	// because a rendezvous send reads acc after posting.
	acc := slot{kind: slotRecv}
	prev := []comp.NodeID{b.copyIn(acc, deps)}
	for k := 0; 1<<k < n; k++ {
		peer := me ^ (1 << k)
		tmp := b.tmp()
		s := b.send(peer, b.tag(k), acc, prev)
		r := b.recv(peer, b.tag(k), tmp, deps)
		prev = []comp.NodeID{b.combine(tmp, []comp.NodeID{s, r})}
	}
}

// allgather adds an all-gather of the send buffer into the receive
// buffer's n blocks.
func (b *builder) allgather(alg string, deps []comp.NodeID) {
	n, me := b.n, b.me
	blk := func(i int) slot { return slot{slotBlock, i} }
	cp := b.copyIn(blk(me), deps)
	if n == 1 {
		return
	}
	if alg == AlgFlat {
		for r := 0; r < n; r++ {
			if r == me {
				continue
			}
			b.send(r, b.tag(0), slot{kind: slotSend}, deps)
			b.recv(r, b.tag(0), blk(r), deps)
		}
		return
	}
	// Ring: round k forwards the block received in round k-1 to the right
	// neighbor while receiving the next one from the left. Receives post
	// immediately (per-round tags); send k needs round k-1's data.
	right, left := (me+1)%n, (me-1+n)%n
	var lastS, lastR comp.NodeID
	for k := 0; k < n-1; k++ {
		sdeps := []comp.NodeID{cp}
		if k > 0 {
			sdeps = []comp.NodeID{lastS, lastR}
		}
		lastS = b.send(right, b.tag(k), blk((me-k+n)%n), sdeps)
		lastR = b.recv(left, b.tag(k), blk((me-k-1+n)%n), deps)
	}
}
