package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzEngineDifferential drives the differential harness with a fuzzed
// workload seed and stop point. stop < 0 runs to idle; otherwise it names
// the event whose firing calls Stop: shard stop%diffShards, that shard's
// stop/diffShards-th allocated id (ids past the shard's budget never fire,
// which is the same as no stop).
//
// The oracle follows the Stop contract. Without a stop, heap, wheel and the
// sharded core at 1, 2 and 4 workers fire identical logs. With a stop the
// serial cores halt right after the stopping event while a ShardGroup
// finishes the window in flight, so heap must equal wheel and the sharded
// worker counts must equal each other, but sharded may differ from serial
// (see TestShardedStopDeterministic).
func FuzzEngineDifferential(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		f.Add(seed, int16(-1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, stop int16) {
		stopAt := -1
		if stop >= 0 {
			stopAt = int(stop)%diffShards*diffM + int(stop)/diffShards
		}
		heap := runSerial(seed, CoreHeap, stopAt)
		logsEqual(t, "wheel", heap, runSerial(seed, CoreWheel, stopAt))
		ref := heap
		if stopAt >= 0 {
			ref = runSharded(seed, 1, stopAt)
		} else {
			logsEqual(t, "sharded/1", ref, runSharded(seed, 1, stopAt))
		}
		logsEqual(t, "sharded/2", ref, runSharded(seed, 2, stopAt))
		logsEqual(t, "sharded/4", ref, runSharded(seed, 4, stopAt))
	})
}

// FuzzShardedSameTime drives the differential harness in same-time mode
// (see diffHarness): several origins deliver to one destination at the
// same time, and one origin sends bursts there at one time. The serial
// cores order such ties by scheduling time and legitimately differ (see
// TestShardedSameTimeCrossOriginOrder), so the oracle is the sharded core
// itself: every shard's fire log must honour the canonical merge order and
// be identical at 1, 2 and 4 workers. stop names the stopping event as in
// FuzzEngineDifferential.
func FuzzShardedSameTime(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		f.Add(seed, int16(-1))
	}
	f.Add(uint64(1), int16(200))
	f.Fuzz(func(t *testing.T, seed uint64, stop int16) {
		stopAt := -1
		if stop >= 0 {
			stopAt = int(stop)%diffShards*diffM + int(stop)/diffShards
		}
		ref := runShardedHarness(seed, 1, stopAt, true)
		for s, st := range ref.state {
			checkMergeOrder(t, fmt.Sprintf("sharded/1 shard %d", s), st.log)
		}
		for _, workers := range []int{2, 4} {
			got := runShardedHarness(seed, workers, stopAt, true)
			for s, st := range got.state {
				logsEqual(t, fmt.Sprintf("sharded/%d shard %d", workers, s), ref.state[s].log, st.log)
			}
		}
	})
}

// FuzzWheelMatchesHeap runs one generated event program on the wheel and
// heap cores and compares the complete ordered fire log. It covers what
// FuzzEngineDifferential cannot: there, every time is globally unique and at
// least one coarse step ahead, so the wheel's slot-local ordering is never
// contested. Here programs draw times from every wheel level and from
// exact same-time collisions, schedule sub-slot follow-ons from inside
// handlers (landing below the frontier, ahead of entries still waiting in
// the sorted run), cancel and reschedule entries that sit in the run, and
// arm recurring events.
func FuzzWheelMatchesHeap(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		prog := make([]byte, 64+64*i)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		heap := runWheelProg(CoreHeap, prog)
		wheel := runWheelProg(CoreWheel, prog)
		if len(heap) != len(wheel) {
			t.Fatalf("wheel fired %d events, heap fired %d", len(wheel), len(heap))
		}
		for i := range heap {
			if heap[i] != wheel[i] {
				t.Fatalf("fire %d: wheel %+v, heap %+v", i, wheel[i], heap[i])
			}
		}
	})
}

// progFire is one logged firing of a generated program's event.
type progFire struct {
	when Time
	id   int
}

// wheelProg interprets a byte string as an event program. Every decision
// reads the next program byte, and bytes are consumed in firing order, so
// two cores that fire identically consume the program identically.
type wheelProg struct {
	e    *Engine
	prog []byte
	pc   int
	ids  int
	pend []progEvent // pending events, in scheduling order
	log  []progFire
}

type progEvent struct {
	id int
	ev *Event
}

func runWheelProg(core Core, prog []byte) []progFire {
	p := &wheelProg{e: NewEngineWithCore(1, core), prog: prog}
	for n := 0; n < 16 && !p.done(); n++ {
		p.op()
	}
	p.e.RunUntilIdle()
	return p.log
}

func (p *wheelProg) done() bool { return p.pc >= len(p.prog) }

// next returns the next program byte, or 0 past the end.
func (p *wheelProg) next() byte {
	if p.done() {
		return 0
	}
	b := p.prog[p.pc]
	p.pc++
	return b
}

// delay draws a non-negative offset from one of the wheel's levels.
func (p *wheelProg) delay() Time {
	class, arg := p.next(), Time(p.next())
	switch class % 6 {
	case 0:
		return 0 // exactly now
	case 1:
		return arg * 4 % nearSlotWidth // sub-slot
	case 2:
		return arg*nearSlotWidth + arg // near wheel
	case 3:
		return arg<<farShift + arg*nearSlotWidth // far wheel
	case 4:
		return (wheelSlots + arg) << farShift // overflow
	default:
		// Onto the next slot boundaries, or one nanosecond short of them.
		now := p.e.Now()
		return (now>>nearShift+1+arg%4)<<nearShift - Time(class>>7) - now
	}
}

// when draws an absolute time at or after now: a delay from now, saturating
// at Forever-1, or an exact collision with a pending event's time.
func (p *wheelProg) when() Time {
	now := p.e.Now()
	switch b := p.next(); {
	case b < 32 && len(p.pend) > 0:
		return p.pend[int(b)%len(p.pend)].ev.When()
	case b < 40:
		return Forever - 1
	default:
		if d := p.delay(); d <= Forever-1-now {
			return now + d
		}
		return Forever - 1
	}
}

// target picks a pending event: the earliest one (the likeliest to sit in
// the wheel's sorted run) or one by index. It returns -1 if none is pending.
func (p *wheelProg) target() int {
	b := int(p.next())
	if len(p.pend) == 0 {
		return -1
	}
	if b&1 == 0 {
		return b >> 1 % len(p.pend)
	}
	best := 0
	for i, pe := range p.pend {
		if pe.ev.When() < p.pend[best].ev.When() {
			best = i
		}
	}
	return best
}

func (p *wheelProg) drop(i int) { p.pend = append(p.pend[:i], p.pend[i+1:]...) }

func (p *wheelProg) dropID(id int) {
	for i, pe := range p.pend {
		if pe.id == id {
			p.drop(i)
			return
		}
	}
}

// op executes one program operation.
func (p *wheelProg) op() {
	switch p.next() % 6 {
	case 0, 1:
		p.schedule(p.when())
	case 2: // a burst of same-time events
		t := p.when()
		for n := p.next()%8 + 1; n > 0; n-- {
			p.schedule(t)
		}
	case 3:
		if i := p.target(); i >= 0 {
			p.e.Cancel(p.pend[i].ev)
			p.drop(i)
		}
	case 4:
		if i := p.target(); i >= 0 {
			p.e.Reschedule(p.pend[i].ev, p.when())
		}
	default:
		p.recur(p.when())
	}
}

// handle logs a firing and runs up to three operations from inside it.
func (p *wheelProg) handle(id int) {
	p.log = append(p.log, progFire{p.e.Now(), id})
	for n := p.next() % 4; n > 0 && !p.done(); n-- {
		p.op()
	}
}

func (p *wheelProg) schedule(t Time) {
	id := p.ids
	p.ids++
	ev := p.e.At(t, "prog", func() {
		p.dropID(id)
		p.handle(id)
	})
	p.pend = append(p.pend, progEvent{id, ev})
}

// recur arms a recurring event that fires up to eight times at a fixed
// period, running program operations from each firing.
func (p *wheelProg) recur(first Time) {
	id := p.ids
	p.ids++
	left := int(p.next()%8) + 1
	period := p.delay() + 1
	var ev *Event
	ev = p.e.Recur(first, "prog-recur", func() Time {
		p.dropID(id) // not a valid target while it fires
		p.handle(id)
		left--
		now := p.e.Now()
		if left == 0 || period > Forever-1-now {
			return RecurStop
		}
		p.pend = append(p.pend, progEvent{id, ev})
		return now + period
	})
	p.pend = append(p.pend, progEvent{id, ev})
}
