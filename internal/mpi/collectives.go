package mpi

import "math/bits"

// Collectives are implemented with the standard algorithms the paper's MPI
// used: recursive doubling with a non-power-of-two fold for Allreduce (the
// "standard tree algorithm ... no more than 2*log2(N) point to point
// communications"), a dissemination Barrier, and a ring Allgather. They
// carry real values so tests can check numerical correctness.

// tag space layout per collective instance: 64 tags.
const (
	tagsPerCollective = 64
	tagFold           = 0  // non-power-of-two pre-reduction
	tagRound0         = 1  // recursive doubling rounds 1+k (k < 62)
	tagFinal          = 63 // result distribution to folded ranks
)

func (r *Rank) nextTagBase() int {
	base := r.collSeq * tagsPerCollective
	r.collSeq++
	return base
}

// floorPow2 returns the largest power of two <= n (n >= 1).
func floorPow2(n int) int {
	return 1 << (bits.Len(uint(n)) - 1)
}

// effRank maps a real rank to its recursive-doubling participant index, or
// -1 for folded-out ranks (even ranks below 2*rem).
func effRank(real, rem int) int {
	if real < 2*rem {
		if real%2 == 0 {
			return -1
		}
		return real / 2
	}
	return real - rem
}

// realRank inverts effRank.
func realRank(eff, rem int) int {
	if eff < rem {
		return 2*eff + 1
	}
	return eff + rem
}

// collState is a per-rank reusable state machine for the scalar Allreduce
// and Barrier. A rank runs at most one collective at a time (the
// continuation-passing style serializes them), so one record whose
// continuations are bound at first use replaces the O(log N) closures each
// call used to allocate. The record is embedded by value in Rank — part of
// the job's flat rank array rather than a separate lazy heap object — and
// only the continuations are built on first use. Every continuation that
// hands control back to user code copies the fields it needs to locals
// first, so the user continuation may start the rank's next collective
// immediately.
type collState struct {
	r *Rank

	// Shared round state (Allreduce and Barrier are never active at once).
	base  int
	k     int
	bytes int

	// Allreduce
	p2, rem, eff int
	acc, v       float64
	then         func(float64)
	arExchanged  func(float64)
	arReduce     func()
	arFoldRecv   func(float64)
	arFoldAdd    func()
	arFinish     func()
	arFinalRecv  func(float64)
	arFinalSent  func()
	arDirect     func()

	// Barrier
	bn    int
	bThen func()
	bSent func()
	bGot  func(float64)
}

// collective returns the rank's collective state machine, binding its
// continuations on first use. Only called after Launch (collectives run
// from the program body), so capturing r and s is safe: the rank array no
// longer moves.
func (r *Rank) collective() *collState {
	s := &r.coll
	if s.r == nil {
		s.r = r
		s.arExchanged = func(v float64) {
			s.v = v
			r.thread.Run(r.job.cfg.ReduceCost, s.arReduce)
		}
		s.arReduce = func() {
			s.acc += s.v
			s.k++
			s.arRounds()
		}
		s.arFoldRecv = func(v float64) {
			s.v = v
			r.thread.Run(r.job.cfg.ReduceCost, s.arFoldAdd)
		}
		s.arFoldAdd = func() {
			s.acc += s.v
			s.k, s.eff = 0, effRank(r.id, s.rem)
			s.arRounds()
		}
		s.arFinish = func() {
			// Phase 3: distribute the result back to folded-out even ranks.
			if r.id < 2*s.rem {
				if r.id%2 == 0 {
					r.Recv(r.id+1, s.base+tagFinal, s.arFinalRecv)
					return
				}
				r.Send(r.id-1, s.base+tagFinal, s.acc, s.bytes, s.arFinalSent)
				return
			}
			then, acc := s.then, s.acc
			s.then = nil
			then(acc)
		}
		s.arFinalRecv = func(v float64) {
			then := s.then
			s.then = nil
			then(v)
		}
		s.arFinalSent = func() {
			then, acc := s.then, s.acc
			s.then = nil
			then(acc)
		}
		s.arDirect = s.arFinalSent
		s.bSent = func() {
			from := (r.id - 1<<s.k + s.bn) % s.bn
			r.Recv(from, s.base+tagRound0+s.k, s.bGot)
		}
		s.bGot = func(float64) {
			s.k++
			s.bRound()
		}
	}
	return s
}

// arRounds runs recursive-doubling round k (phase 2).
func (s *collState) arRounds() {
	if 1<<s.k >= s.p2 {
		s.arFinish()
		return
	}
	peer := realRank(s.eff^(1<<s.k), s.rem)
	s.r.SendRecv(peer, s.base+tagRound0+s.k, s.acc, s.bytes, s.arExchanged)
}

// bRound runs dissemination-barrier round k.
func (s *collState) bRound() {
	dist := 1 << s.k
	if dist >= s.bn {
		then := s.bThen
		s.bThen = nil
		then()
		return
	}
	to := (s.r.id + dist) % s.bn
	s.r.Send(to, s.base+tagRound0+s.k, 0, 0, s.bSent)
}

// Allreduce computes the global sum of value across all ranks and continues
// with the result. Every rank must call it in the same program order.
func (r *Rank) Allreduce(value float64, then func(sum float64)) {
	if r.job.cfg.hwEnabled() {
		r.hwAllreduce(value, then)
		return
	}
	n := r.Size()
	base := r.nextTagBase()
	s := r.collective()
	s.acc = value
	s.then = then
	if n == 1 {
		r.thread.Run(r.job.cfg.ReduceCost, s.arDirect)
		return
	}
	s.base = base
	s.p2 = floorPow2(n)
	s.rem = n - s.p2
	s.bytes = r.job.cfg.ElemBytes

	// Phase 1: fold the extra ranks into a power-of-two participant set.
	if r.id < 2*s.rem {
		if r.id%2 == 0 {
			r.Send(r.id+1, base+tagFold, s.acc, s.bytes, s.arFinish)
			return
		}
		r.Recv(r.id-1, base+tagFold, s.arFoldRecv)
		return
	}
	s.k, s.eff = 0, effRank(r.id, s.rem)
	s.arRounds()
}

// Barrier blocks until every rank has entered it (dissemination algorithm:
// ceil(log2(N)) rounds of shifted exchanges).
func (r *Rank) Barrier(then func()) {
	n := r.Size()
	base := r.nextTagBase()
	if n == 1 {
		r.thread.Run(0, then)
		return
	}
	s := r.collective()
	s.base = base
	s.bn = n
	s.bThen = then
	s.k = 0
	s.bRound()
}

// Allgather collects every rank's value; continues with a slice indexed by
// rank. Ring algorithm: N-1 steps, each passing the newest value along.
func (r *Rank) Allgather(value float64, then func(values []float64)) {
	n := r.Size()
	base := r.nextTagBase()
	values := make([]float64, n)
	values[r.id] = value
	if n == 1 {
		r.thread.Run(0, func() { then(values) })
		return
	}
	right := (r.id + 1) % n
	left := (r.id - 1 + n) % n
	bytes := r.job.cfg.ElemBytes

	var step func(k int)
	step = func(k int) {
		if k >= n-1 {
			then(values)
			return
		}
		// In step k we forward the value that originated at id-k and
		// receive the one that originated at id-k-1 (mod n).
		sendIdx := (r.id - k + n*n) % n
		recvIdx := (r.id - k - 1 + n*n) % n
		r.Send(right, base+tagRound0+k%60, values[sendIdx], bytes, func() {
			r.Recv(left, base+tagRound0+k%60, func(v float64) {
				values[recvIdx] = v
				step(k + 1)
			})
		})
	}
	step(0)
}

// RingExchange performs a nearest-neighbor halo exchange: send value to both
// neighbors, receive theirs, continue with (left, right) values. This is the
// paper's "ring communication pattern" fine-grain operation.
func (r *Rank) RingExchange(value float64, bytes int, then func(fromLeft, fromRight float64)) {
	n := r.Size()
	base := r.nextTagBase()
	if n == 1 {
		r.thread.Run(0, func() { then(value, value) })
		return
	}
	right := (r.id + 1) % n
	left := (r.id - 1 + n) % n
	// Tags distinguish direction: +0 flows rightward, +1 flows leftward.
	r.Send(right, base+tagRound0, value, bytes, func() {
		r.Send(left, base+tagRound0+1, value, bytes, func() {
			r.Recv(left, base+tagRound0, func(fromLeft float64) {
				r.Recv(right, base+tagRound0+1, func(fromRight float64) {
					then(fromLeft, fromRight)
				})
			})
		})
	})
}
