package sim

import (
	"fmt"
	"math/rand"
	"slices"
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
// arm recurring events. Owned events ride along: programs bind records and
// arm them, re-arm them from their own callbacks, cancel and then arm
// them, and reschedule them across wheel levels.
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
		heap, hbad := runWheelProg(CoreHeap, prog)
		wheel, wbad := runWheelProg(CoreWheel, prog)
		if hbad != "" || wbad != "" {
			t.Fatalf("contract broken: heap %q, wheel %q", hbad, wbad)
		}
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
// two cores that fire identically consume the program identically. The
// program also checks the engine contract on its own, which a fault both
// cores share would pass the comparison with: every event fires once, at
// the time it was last armed for, and At never returns an owned record.
type wheelProg struct {
	e     *Engine
	prog  []byte
	pc    int
	ids   int
	pend  []progEvent // pending events, in scheduling order
	owned []*progOwned
	log   []progFire
	bad   string // the first contract violation seen
}

type progEvent struct {
	id   int
	ev   *Event
	when Time // the time it was last armed for
}

// progOwned is an owned record of a program; id names its current arming.
type progOwned struct {
	ev Event
	id int
}

// maxProgOwned bounds how many owned records a program binds.
const maxProgOwned = 8

// runWheelProg runs prog on core and returns its fire log and the first
// contract violation, if any.
func runWheelProg(core Core, prog []byte) ([]progFire, string) {
	p := &wheelProg{e: NewEngineWithCore(1, core), prog: prog}
	for n := 0; n < 16 && !p.done(); n++ {
		p.op()
	}
	p.e.RunUntilIdle()
	if len(p.pend) > 0 || p.e.Pending() > 0 {
		p.fail(fmt.Sprintf("%d events (engine: %d) never fired", len(p.pend), p.e.Pending()))
	}
	return p.log, p.bad
}

func (p *wheelProg) fail(msg string) {
	if p.bad == "" {
		p.bad = msg
	}
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
		return p.pend[int(b)%len(p.pend)].when
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
		if pe.when < p.pend[best].when {
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
	switch p.next() % 8 {
	case 0, 1:
		p.schedule(p.when())
	case 2: // a burst of same-time events
		t := p.when()
		for n := p.next()%8 + 1; n > 0; n-- {
			p.schedule(t)
		}
	case 3:
		if i := p.target(); i >= 0 {
			ev := p.pend[i].ev
			p.e.Cancel(ev)
			p.drop(i)
			if p.next()&1 == 1 {
				if o := p.ownerOf(ev); o != nil {
					p.arm(o, p.when()) // Cancel, then Arm again
				}
			}
		}
	case 4:
		if i := p.target(); i >= 0 {
			t := p.when()
			p.e.Reschedule(p.pend[i].ev, t)
			p.pend[i].when = t
		}
	case 5:
		p.recur(p.when())
	default:
		// Arm an owned record, binding a new one if the pick is past the
		// last; a pick that is pending is canceled and armed again.
		b := int(p.next())
		if b%(len(p.owned)+1) == len(p.owned) && len(p.owned) < maxProgOwned {
			p.bind()
		}
		if len(p.owned) == 0 {
			return
		}
		o := p.owned[b%len(p.owned)]
		if o.ev.Pending() {
			p.e.Cancel(&o.ev)
			p.dropID(o.id)
		}
		p.arm(o, p.when())
	}
}

// bind adds an owned record whose callback runs program operations and
// then, if the program says so, re-arms the record from inside it.
func (p *wheelProg) bind() {
	o := &progOwned{}
	o.ev.Bind("prog-owned", func() {
		p.handle(o.id)
		if p.next()&1 == 1 && !o.ev.Pending() {
			p.arm(o, p.when())
		}
	})
	p.owned = append(p.owned, o)
}

// arm arms o at t under a fresh id.
func (p *wheelProg) arm(o *progOwned, t Time) {
	o.id = p.ids
	p.ids++
	p.e.Arm(&o.ev, t)
	p.pend = append(p.pend, progEvent{o.id, &o.ev, t})
}

// ownerOf returns the owned record ev is, or nil for a pooled event.
func (p *wheelProg) ownerOf(ev *Event) *progOwned {
	for _, o := range p.owned {
		if &o.ev == ev {
			return o
		}
	}
	return nil
}

// handle retires a firing event, logs it and runs up to three operations
// from inside it.
func (p *wheelProg) handle(id int) {
	now := p.e.Now()
	p.log = append(p.log, progFire{now, id})
	i := slices.IndexFunc(p.pend, func(pe progEvent) bool { return pe.id == id })
	switch {
	case i < 0:
		p.fail(fmt.Sprintf("event %d fired at %v while not pending", id, now))
	case p.pend[i].when != now:
		p.fail(fmt.Sprintf("event %d fired at %v, armed for %v", id, now, p.pend[i].when))
	}
	if i >= 0 {
		p.drop(i)
	}
	for n := p.next() % 4; n > 0 && !p.done(); n-- {
		p.op()
	}
}

func (p *wheelProg) schedule(t Time) {
	id := p.ids
	p.ids++
	ev := p.e.At(t, "prog", func() { p.handle(id) })
	if p.ownerOf(ev) != nil {
		p.fail(fmt.Sprintf("At returned owned record %q", ev.Label()))
	}
	p.pend = append(p.pend, progEvent{id, ev, t})
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
		p.handle(id) // not a valid target while it fires
		left--
		now := p.e.Now()
		if left == 0 || period > Forever-1-now {
			return RecurStop
		}
		p.pend = append(p.pend, progEvent{id, ev, now + period})
		return now + period
	})
	p.pend = append(p.pend, progEvent{id, ev, first})
}
