# Tier-1 verification plus the race-checked gate the concurrent experiment
# harness requires. `make check` is what a PR must keep green.

GO ?= go

.PHONY: build test vet race race-sharded fuzz-smoke perfbench-smoke bench huge huge-smoke fault-smoke profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The experiment harness fans simulation runs out across goroutines; every
# change must pass the race detector, not just the plain test run.
race:
	$(GO) test -race ./...

# race-sharded re-runs the sharded-engine differential tests under the race
# detector at two scheduler widths. GOMAXPROCS changes how shard worker
# goroutines interleave, so both widths must stay clean AND bit-identical —
# the tests themselves compare sharded output against the serial engine.
# The explicit timeout makes a lost barrier wakeup fail within minutes, with
# a goroutine dump, instead of after go test's default 10.
race-sharded:
	GOMAXPROCS=2 $(GO) test -race -count=1 -timeout 5m -run 'Shard|BitIdentical' ./internal/sim/ ./internal/cluster/ ./internal/workload/ ./internal/experiment/
	GOMAXPROCS=4 $(GO) test -race -count=1 -timeout 5m -run 'Shard|BitIdentical' ./internal/sim/ ./internal/cluster/ ./internal/workload/ ./internal/experiment/

# fuzz-smoke runs the fuzz targets briefly. FuzzEngineDifferential:
# generated event programs (schedules, cancels, reschedules, recurring
# events, owned events, cross-shard sends and ArmOn hand-offs, stops) must
# fire identically on the heap, wheel and sharded cores.
# FuzzWheelMatchesHeap: programs with same-time collisions, in-handler
# inserts below the wheel frontier, every wheel level and owned events that
# are armed, re-armed, canceled and rescheduled must fire in exactly the
# heap core's order, each event once at the time it was armed for.
# FuzzShardedSameTime: programs where several shards deliver to one shard
# at the same time must keep the window barrier's canonical merge order and
# fire identically at 1, 2 and 4 workers. FuzzParseAdminFile: the
# co-scheduler's admin-file parser never panics, returns only valid
# records, and accepts a file iff it accepts each of its lines.
# FuzzOpenCheckpoint: resuming from any checkpoint file (torn tails,
# foreign fingerprints, duplicate keys, invalid values) never panics,
# loads only valid entries and is idempotent. Commit any crasher under the
# package's testdata/fuzz/ so it replays in every plain test run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEngineDifferential -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzWheelMatchesHeap -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzShardedSameTime -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzParseAdminFile -fuzztime 10s ./internal/cosched/
	$(GO) test -run '^$$' -fuzz FuzzOpenCheckpoint -fuzztime 10s ./internal/experiment/

# perfbench-smoke runs the benchmark's own smoke test (perfbench is a
# separate module, so the root test run never sees it): tiny workload
# sizes, every metric printed with its unit, pinned digests checked.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# huge runs the extended scaling tier: the Allreduce sweep carried to 1024
# sixteen-way nodes (16384 ranks) on the sharded conservative-window core,
# with per-call timings streamed through online accumulators instead of
# retained. GOMAXPROCS is pinned so the intra-run worker budget is honored
# even on small CI boxes.
huge:
	GOMAXPROCS=4 $(GO) run ./cmd/parsim run huge -huge -procs 4 -shard-procs 4 -v

# huge-smoke is the fast tier-1 variant of the same path: reduced node count,
# still sharded, still streamed.
huge-smoke:
	GOMAXPROCS=2 $(GO) run ./cmd/parsim run huge -nodes 64 -calls 8 -seeds 1 -procs 2 -shard-procs 2

# fault-smoke exercises the resilience layer end to end: the fault-injection
# and quarantine test set under the race detector (crashes, drops, retries,
# partitions, stalls, supervisor respawns, checkpoint resume), then a small
# abl-fault sweep through the real CLI on the sharded core. The sweep's
# rendered bytes are also pinned by TestGoldenHashes, so this target is a
# smoke test, not the determinism gate. Last, one checkpoint round trip
# through the CLI: two experiments write one checkpoint file, a -resume
# run must replay from it, and both runs must print the same tables once
# the wall-time lines are dropped. Outputs go to files, not pipes, so
# every command's exit code counts.
SMOKE_ARGS = run fig3 t1 -nodes 2 -calls 8 -seeds 1 -procs 2
fault-smoke:
	$(GO) test -race -count=1 -run 'Fault|Quarantine|Supervisor|Respawn|Checkpoint|Panic|Deadline' ./internal/...
	GOMAXPROCS=2 $(GO) run ./cmd/parsim run abl-fault -nodes 4 -calls 24 -seeds 1 -procs 2 -shard-procs 2
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d/parsim ./cmd/parsim && \
	$$d/parsim $(SMOKE_ARGS) -checkpoint $$d/cp.jsonl > $$d/first && \
	$$d/parsim $(SMOKE_ARGS) -checkpoint $$d/cp.jsonl -resume -v > $$d/resumed 2> $$d/progress && \
	grep -q 'checkpoint cached' $$d/progress && \
	grep -v 'wall)' $$d/first > $$d/first.tables && \
	grep -v 'wall)' $$d/resumed > $$d/resumed.tables && \
	cmp $$d/first.tables $$d/resumed.tables && echo 'checkpoint round trip: identical tables'

# profile runs a representative sweep under the CPU and allocation profilers
# and prints the top CPU consumers. Inspect interactively with
# `go tool pprof profiles/parsim.cpu`.
PROFILE_ARGS ?= run fig3 t2 -csv
profile:
	mkdir -p profiles
	$(GO) build -o profiles/parsim ./cmd/parsim
	./profiles/parsim $(PROFILE_ARGS) -cpuprofile profiles/parsim.cpu -memprofile profiles/parsim.mem > /dev/null
	$(GO) tool pprof -top -nodecount 25 profiles/parsim profiles/parsim.cpu

check: vet test race race-sharded fuzz-smoke perfbench-smoke
