package sim

import "testing"

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
