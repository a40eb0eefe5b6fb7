package mpi

import "coschedsim/internal/sim"

// Vector reductions. The paper's benchmark reduces scalars, but ALE3D's
// implicit-hydrodynamics mode performs "thousands of matrix-vector
// multiplies and tens or hundreds of reductions per timestep" over real
// vectors. For short vectors the recursive-doubling algorithm is right; for
// long ones MPI implementations switch to Rabenseifner's algorithm
// (reduce-scatter by recursive halving, then allgather by recursive
// doubling), which moves each byte O(1) times instead of O(log N) times.
//
// AllreduceVec picks the algorithm by payload size against
// Config.LongVectorBytes and carries real element values so tests verify
// numerics under both paths.

// vecAdd accumulates src into dst element-wise.
func vecAdd(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// sendVec/recvVec move a vector slice through the regular matching layer.
// The payload travels out-of-band (attached to the message value channel is
// scalar-only), so vectors ride a side list keyed by (src, tag), matched
// FIFO per key like the scalar pending list.
func (r *Rank) sendVec(dst, tag int, vec []float64, then func()) {
	if dst < 0 || dst >= len(r.job.ranks) {
		panic("mpi: sendVec to invalid rank")
	}
	payload := make([]float64, len(vec))
	copy(payload, vec)
	bytes := len(vec) * r.job.cfg.ElemBytes
	r.thread.Run(r.job.cfg.SendOverhead, func() {
		r.p2pSends++
		target := &r.job.ranks[dst]
		key := msgKey{src: r.id, tag: tag}
		deliver := func() {
			target.vecPending = append(target.vecPending, vecArrival{key: key, vec: payload})
			target.deliver(key, message{bytes: bytes})
		}
		if r.job.faults == nil {
			r.job.fabric.Send(r.node.ID(), target.node.ID(), bytes, deliver)
		} else {
			r.trySend(target, bytes, r.p2pSends-1, deliver)
		}
		then()
	})
}

func (r *Rank) recvVec(src, tag int, then func(vec []float64)) {
	key := msgKey{src: src, tag: tag}
	r.Recv(src, tag, func(float64) {
		for i := range r.vecPending {
			if r.vecPending[i].key == key {
				vec := r.vecPending[i].vec
				copy(r.vecPending[i:], r.vecPending[i+1:])
				r.vecPending[len(r.vecPending)-1] = vecArrival{} // release the payload reference
				r.vecPending = r.vecPending[:len(r.vecPending)-1]
				then(vec)
				return
			}
		}
		panic("mpi: vector receive without payload")
	})
}

// reduceCostFor scales the per-element combine cost.
func (r *Rank) reduceCostFor(elems int) sim.Time {
	c := r.job.cfg.ReduceCost * sim.Time(elems)
	if c < r.job.cfg.ReduceCost {
		c = r.job.cfg.ReduceCost
	}
	return c
}

// AllreduceVec computes the element-wise global sum of vec across all
// ranks. Every rank must pass the same length.
func (r *Rank) AllreduceVec(vec []float64, then func(sums []float64)) {
	n := r.Size()
	acc := make([]float64, len(vec))
	copy(acc, vec)
	if n == 1 {
		r.thread.Run(r.reduceCostFor(len(vec)), func() { then(acc) })
		return
	}
	payload := len(vec) * r.job.cfg.ElemBytes
	if payload < r.job.cfg.LongVectorBytes || len(vec)%n != 0 || n&(n-1) != 0 {
		// Short vectors (or awkward sizes: non-power-of-two ranks, lengths
		// not divisible by the rank count): recursive doubling with the
		// scalar machinery's structure, whole vector each round.
		r.rdAllreduceVec(acc, then)
		return
	}
	r.rabenseifnerAllreduceVec(acc, then)
}

// rdAllreduceVec is recursive doubling over whole vectors, with the usual
// non-power-of-two fold. Each combine builds a fresh accumulator instead of
// adding in place, and the working vector rides the recursion as a
// parameter, so every continuation is a pure function of its inputs.
func (r *Rank) rdAllreduceVec(acc []float64, then func([]float64)) {
	n := r.Size()
	base := r.nextTagBase()
	p2 := floorPow2(n)
	rem := n - p2

	finish := func(acc []float64) {
		if r.id < 2*rem {
			if r.id%2 == 0 {
				r.recvVec(r.id+1, base+tagFinal, func(v []float64) { then(v) })
				return
			}
			r.sendVec(r.id-1, base+tagFinal, acc, func() { then(acc) })
			return
		}
		then(acc)
	}

	var rounds func(k, eff int, acc []float64)
	rounds = func(k, eff int, acc []float64) {
		if 1<<k >= p2 {
			finish(acc)
			return
		}
		peer := realRank(eff^(1<<k), rem)
		r.sendVec(peer, base+tagRound0+k, acc, func() {
			r.recvVec(peer, base+tagRound0+k, func(v []float64) {
				r.thread.Run(r.reduceCostFor(len(acc)), func() {
					sum := make([]float64, len(acc))
					copy(sum, acc)
					vecAdd(sum, v)
					rounds(k+1, eff, sum)
				})
			})
		})
	}

	if r.id < 2*rem {
		if r.id%2 == 0 {
			r.sendVec(r.id+1, base+tagFold, acc, func() { finish(acc) })
			return
		}
		r.recvVec(r.id-1, base+tagFold, func(v []float64) {
			r.thread.Run(r.reduceCostFor(len(acc)), func() {
				sum := make([]float64, len(acc))
				copy(sum, acc)
				vecAdd(sum, v)
				rounds(0, effRank(r.id, rem), sum)
			})
		})
		return
	}
	rounds(0, effRank(r.id, rem), acc)
}

// rabenseifnerAllreduceVec implements the long-vector algorithm for
// power-of-two rank counts: recursive-halving reduce-scatter (each round
// exchanges half the remaining span) followed by recursive-doubling
// allgather.
func (r *Rank) rabenseifnerAllreduceVec(acc []float64, then func([]float64)) {
	n := r.Size()
	base := r.nextTagBase()

	nRounds := 0
	for 1<<nRounds < n {
		nRounds++
	}

	var gather func(k, glo, ghi int, cur []float64)
	var scatter func(k, lo, hi int, cur []float64)

	// The owned span [lo, hi) and the working vector ride the recursion as
	// parameters, and each combine builds a fresh vector, as in
	// rdAllreduceVec.
	scatter = func(k, lo, hi int, cur []float64) {
		bit := n >> (k + 1) // partner distance halves each round
		if bit == 0 {
			// Reduce-scatter done: this rank holds the global sums for
			// [lo, hi). Gather rounds mirror the scatter in reverse.
			gather(0, lo, hi, cur)
			return
		}
		peer := r.id ^ bit
		mid := (lo + hi) / 2
		var sendLo, sendHi, keepLo, keepHi int
		if r.id&bit == 0 {
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		r.sendVec(peer, base+tagRound0+k, cur[sendLo:sendHi], func() {
			r.recvVec(peer, base+tagRound0+k, func(v []float64) {
				r.thread.Run(r.reduceCostFor(len(v)), func() {
					next := make([]float64, len(cur))
					copy(next, cur)
					vecAdd(next[keepLo:keepHi], v)
					scatter(k+1, keepLo, keepHi, next)
				})
			})
		})
	}

	gather = func(k, glo, ghi int, cur []float64) {
		if k == nRounds {
			then(cur)
			return
		}
		bit := 1 << k
		peer := r.id ^ bit
		// Exchange owned spans: the pair's spans are adjacent mirrors.
		span := ghi - glo
		var peerLo int
		if r.id&bit == 0 {
			peerLo = glo + span
		} else {
			peerLo = glo - span
		}
		r.sendVec(peer, base+32+k, cur[glo:ghi], func() {
			r.recvVec(peer, base+32+k, func(v []float64) {
				next := make([]float64, len(cur))
				copy(next, cur)
				copy(next[peerLo:peerLo+len(v)], v)
				nlo := glo
				if peerLo < glo {
					nlo = peerLo
				}
				gather(k+1, nlo, nlo+2*span, next)
			})
		})
	}
	scatter(0, 0, len(acc), acc)
}
