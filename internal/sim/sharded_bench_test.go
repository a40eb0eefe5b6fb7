package sim

import (
	"runtime"
	"testing"
)

// windowLoop builds the window machinery's steady-state load: 4 shards under
// 2 workers, each carrying a dense self-rescheduling event chain plus a
// cross-shard send every 4th firing. Run it for k lookaheads of simulated
// time to execute k windows.
func windowLoop() *ShardGroup {
	const shards = 4
	lookahead := 24 * Microsecond
	g := NewShardGroup(1, shards, 2, lookahead)
	for i := 0; i < shards; i++ {
		i := i
		e := g.Shard(i)
		n := 0
		e.Recur(Time(i+1)*Microsecond, "chain", func() Time {
			n++
			if n%4 == 0 {
				dst := g.Shard((i + 1) % shards)
				e.ScheduleOn(dst, e.Now()+lookahead, "cross", func() {})
			}
			return e.Now() + 10*Microsecond
		})
	}
	return g
}

// BenchmarkShardedWindowAllocs measures the conservative time-window
// machinery's steady-state allocation cost over b.N windows of windowLoop;
// run with -benchmem. Window dispatch, outbox staging and the canonical merge
// all reuse their backing storage, so allocs/op should stay flat as b.N
// grows; TestShardedWindowAllocs pins that.
func BenchmarkShardedWindowAllocs(b *testing.B) {
	g := windowLoop()
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(Time(b.N) * g.Lookahead())
}

// TestShardedWindowAllocs pins the window loop's allocation contract: after
// warm-up, windowLoop allocates nothing per window — dispatch, the barrier
// and the canonical merge all reuse their storage — and that count does
// not grow between a run of n windows and the following run of 4n. As with
// testing.AllocsPerRun, the count per window is the truncated average, so
// a Run call's own setup (its helper goroutines) stays below one per
// window.
func TestShardedWindowAllocs(t *testing.T) {
	const n = 500
	g := windowLoop()
	until := 64 * g.Lookahead()
	g.Run(until) // warm-up
	perWindow := func(windows int) uint64 {
		until += Time(windows) * g.Lookahead()
		w0 := g.Stats().Windows
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.Run(until)
		runtime.ReadMemStats(&after)
		ran := g.Stats().Windows - w0
		if ran == 0 {
			t.Fatalf("no windows ran up to %v", until)
		}
		return (after.Mallocs - before.Mallocs) / ran
	}
	short, long := perWindow(n), perWindow(4*n)
	if short > 0 || long > 0 {
		t.Errorf("window loop allocates %d times per window over %d windows and %d over the next %d, want 0",
			short, n, long, 4*n)
	}
	if long > short {
		t.Errorf("allocations per window grew from %d over %d windows to %d over the next %d", short, n, long, 4*n)
	}
}
