package lci

import (
	"lci/internal/coll"
)

// This file surfaces the collectives subsystem (internal/coll). LCI
// itself is a point-to-point library; the paper builds collectives out of
// point-to-point primitives and recommends composing nonblocking ones
// with completion graphs (§4.2.6), which is exactly how internal/coll
// expresses them: nodes are PostSend/PostRecv posts and local combine
// closures, edges are the algorithm's partial order. Every collective
// has a blocking form and a nonblocking handle (IBarrier/IBcast/...).
//
// Collectives are collective calls: every rank must issue them in the
// same order, and a rank must not issue collectives concurrently from
// several threads (serialize externally; call order, not thread
// identity, matches operations across ranks). Placement threads through
// end to end: pass WithAffinity (or WithDevice/WithWorker) and every
// round's posts and progress ride that same-domain device.

// Coll is a nonblocking collective handle: Start posts the graph's
// roots, later rounds post from whichever progress call completes their
// inputs, Test reports completion, and Wait blocks while progressing the
// collective's resources. Test reporting true
// means the collective finished, not that it succeeded — a Test-polling
// loop must check Err once Test returns true (Wait returns it).
type Coll = coll.Handle

// CollKind names a collective's kind (Coll.Kind).
type CollKind = coll.Kind

// Collective kinds.
const (
	KindBarrier   = coll.KindBarrier
	KindBcast     = coll.KindBcast
	KindReduce    = coll.KindReduce
	KindAllreduce = coll.KindAllreduce
	KindAllgather = coll.KindAllgather
)

// Datatype names the element type of a built-in reduction (little-endian
// element arrays).
type Datatype = coll.Datatype

// ReduceOp is a reduction operator for Reduce/Allreduce. Operators must
// be associative and commutative.
type ReduceOp = coll.Op

// Reduction element types.
const (
	Int64   = coll.Int64
	Float64 = coll.Float64
)

// Built-in reduction operators.
var (
	OpSum = coll.Sum
	OpMin = coll.Min
	OpMax = coll.Max
)

// OpFunc wraps f as a reduction operator: f folds src into dst
// (dst = dst ⊕ src) over the raw message bytes; it must be associative
// and commutative.
func OpFunc(f func(dst, src []byte)) ReduceOp { return coll.UserFunc(f) }

// Collective algorithm names for WithCollAlgorithm. The default (no
// option) selects by message size and rank count.
const (
	// CollDissemination is the barrier's dissemination algorithm.
	CollDissemination = coll.AlgDissemination
	// CollFlat is the flat (star) algorithm: broadcast, reduce,
	// allgather.
	CollFlat = coll.AlgFlat
	// CollBinomial is the binomial tree: broadcast, reduce.
	CollBinomial = coll.AlgBinomial
	// CollRDouble is recursive doubling: allreduce (power-of-two ranks).
	CollRDouble = coll.AlgRDouble
	// CollReduceBcast is binomial reduce + binomial broadcast: allreduce.
	CollReduceBcast = coll.AlgReduceBcast
	// CollRing is the ring algorithm: allgather.
	CollRing = coll.AlgRing
)

// Barrier blocks until every rank has entered the barrier, progressing
// the chosen resources while waiting (options: WithDevice, WithAffinity,
// WithWorker). Every rank must call Barrier the same number of times.
func (rt *Runtime) Barrier(opts ...Option) error {
	return rt.coll.Barrier(buildOpts(opts))
}

// Broadcast sends buf from root to every rank (in place: the root's buf
// is the payload, every other rank's buf receives it).
func (rt *Runtime) Broadcast(buf []byte, root int, opts ...Option) error {
	return rt.coll.Broadcast(buf, root, buildOpts(opts))
}

// Reduce combines every rank's send buffer with op into recv at root.
// recv must be len(send) bytes on the root; other ranks may pass nil.
func (rt *Runtime) Reduce(send, recv []byte, dt Datatype, op ReduceOp, root int, opts ...Option) error {
	return rt.coll.Reduce(send, recv, dt, op, root, buildOpts(opts))
}

// Allreduce combines every rank's send buffer with op into every rank's
// recv buffer (len(recv) == len(send)).
func (rt *Runtime) Allreduce(send, recv []byte, dt Datatype, op ReduceOp, opts ...Option) error {
	return rt.coll.Allreduce(send, recv, dt, op, buildOpts(opts))
}

// Allgather concatenates every rank's send block into recv on every
// rank: rank i's block lands at recv[i*len(send):(i+1)*len(send)], so
// len(recv) must be NumRanks()*len(send).
func (rt *Runtime) Allgather(send, recv []byte, opts ...Option) error {
	return rt.coll.Allgather(send, recv, buildOpts(opts))
}

// IBarrier returns a nonblocking barrier handle.
func (rt *Runtime) IBarrier(opts ...Option) (*Coll, error) {
	return rt.coll.IBarrier(buildOpts(opts))
}

// IBcast returns a nonblocking broadcast handle.
func (rt *Runtime) IBcast(buf []byte, root int, opts ...Option) (*Coll, error) {
	return rt.coll.IBcast(buf, root, buildOpts(opts))
}

// IReduce returns a nonblocking reduce handle.
func (rt *Runtime) IReduce(send, recv []byte, dt Datatype, op ReduceOp, root int, opts ...Option) (*Coll, error) {
	return rt.coll.IReduce(send, recv, dt, op, root, buildOpts(opts))
}

// IAllreduce returns a nonblocking allreduce handle.
func (rt *Runtime) IAllreduce(send, recv []byte, dt Datatype, op ReduceOp, opts ...Option) (*Coll, error) {
	return rt.coll.IAllreduce(send, recv, dt, op, buildOpts(opts))
}

// IAllgather returns a nonblocking allgather handle.
func (rt *Runtime) IAllgather(send, recv []byte, opts ...Option) (*Coll, error) {
	return rt.coll.IAllgather(send, recv, buildOpts(opts))
}
