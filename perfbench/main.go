// Command perfbench is coschedsim's benchmark. It runs one named workload as
// a closed loop for a fixed number of host seconds, checks that every run's
// simulated results are correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload scaling-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the loop is followed by one traced iteration under a
// CPU profile, and the metrics are the per-layer ones.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"coschedsim/internal/cluster"
)

const (
	// defaultSeed is the seed whose per-run digests are pinned in pins.go.
	defaultSeed = 1
	// gcPercent is parsim's GC setting.
	gcPercent = 800
	// setupReps is how often set-up times each run's cluster build; setup_s
	// sums the per-run medians.
	setupReps = 41
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: scaling-sweep, paper-scale-sharded or ale3d-faults")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "host seconds the closed loop measures")
	traced := fs.Int("trace", 0, "1: add a traced iteration and print the per-layer metrics")
	outDir := fs.String("out", "", "directory the traced iteration writes spans and its CPU profile to")
	commit := fs.String("commit", "unknown", "source revision recorded in the fingerprint")
	pin := fs.Bool("pin", false, "print the workload's run digests in pins.go form and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	debug.SetGCPercent(gcPercent)

	b := &bench{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		size: full, workers: min(2, runtime.GOMAXPROCS(0)), outDir: *outDir,
		progress: stderr,
	}
	if *seed == defaultSeed {
		b.pins = pins[w.name]
	}
	b.fp = fingerprint{
		Workload: w.name, Seed: *seed, Commit: *commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GCPercent: gcPercent,
		Workers: b.workers,
	}
	if *pin {
		runs := w.runs(*seed, b.size)
		res, _ := runAll(runs, b.workers, false)
		for _, r := range res {
			if r.err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", r.err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "\t%q: {\n", w.name)
		for i, r := range runs {
			fmt.Fprintf(stdout, "\t\t%q: %q,\n", r.id, res[i].digest)
		}
		fmt.Fprintf(stdout, "\t},\n")
		return 0
	}
	rep, err := b.run(*traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout, stderr, b.fp, *traced == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// fingerprint identifies the machine and code a record was measured on.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GCPercent  int    `json:"gc_percent"`
	Workers    int    `json:"workers"`
}

type bench struct {
	w        workloadDef
	seed     int64
	seconds  time.Duration
	size     size
	workers  int
	pins     map[string]string // nil: the pinned-digest check is skipped
	outDir   string            // empty: spans and profile are not written
	fp       fingerprint
	progress io.Writer // one line per iteration
}

// report is a finished benchmark run.
type report struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64 // nil unless traced
	attempted int
	failed    int
	checks    []string // one line per correctness check
	failures  []string // one line per failed run
}

// run measures set-up, then the closed loop, then, when traced, one traced
// iteration.
func (b *bench) run(traced bool) (*report, error) {
	runs := b.w.runs(b.seed, b.size)
	rep := &report{}
	if len(runs) == 0 {
		return nil, fmt.Errorf("workload %s has no runs", b.w.name)
	}

	setup, err := setupSeconds(runs)
	if err != nil {
		return nil, err
	}

	// The closed loop: the next iteration starts when the previous one has
	// finished, as long as it is expected to end within the measured time.
	// Every iteration reruns the same inputs, so each run must reproduce
	// the first iteration's digest.
	var walls, allocs, peaks []float64
	ref := make([]string, len(runs))
	totals := make([][]float64, len(runs)) // per run, host seconds per iteration
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+walls[len(walls)-1] <= b.seconds.Seconds() {
		var res []runResult
		var wall time.Duration
		alloc, peak := measureMemory(func() { res, wall = runAll(runs, b.workers, false) })
		walls = append(walls, wall.Seconds())
		fmt.Fprintf(b.progress, "iteration %d: wall %.3fs alloc %.1fMB peak heap %.1fMB\n",
			len(walls), wall.Seconds(), alloc/1e6, peak/1e6)
		allocs = append(allocs, alloc/1e6)
		peaks = append(peaks, peak/1e6)
		for i, r := range res {
			totals[i] = append(totals[i], r.total.Seconds())
		}
		rep.check(runs, res, ref)
	}
	rep.endToEnd = map[string]float64{
		"wall_s": median(walls), "setup_s": setup,
		"alloc_mb": median(allocs), "peak_heap_mb": median(peaks),
	}
	rep.checks = append(rep.checks, fmt.Sprintf(
		"repeat: %d iterations of %d runs; every run must reproduce its first digest", len(walls), len(runs)))
	rep.checkPins(runs, ref, b.pins, b.seed)

	if traced {
		if err := b.trace(rep, runs, ref, totals, median(walls)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// setupSeconds builds every run's cluster setupReps times and sums the
// per-run median build time. A first, untimed round faults in the heap the
// builds need; each timed round starts after a collection and covers all
// runs, so a run's builds are spread over the whole set-up phase.
func setupSeconds(runs []runSpec) (float64, error) {
	times := make([][]float64, len(runs))
	for rep := 0; rep <= setupReps; rep++ {
		runtime.GC()
		for i, r := range runs {
			t := time.Now()
			if _, err := cluster.Build(r.cfg); err != nil {
				return 0, fmt.Errorf("%s: build: %w", r.id, err)
			}
			if rep > 0 {
				times[i] = append(times[i], time.Since(t).Seconds())
			}
		}
	}
	var total float64
	for _, ts := range times {
		total += median(ts)
	}
	return total, nil
}

// check counts an iteration's runs. A run fails when it reports an error or
// its digest differs from the reference; an empty reference entry takes
// the run's digest.
func (rep *report) check(runs []runSpec, res []runResult, ref []string) {
	for i, r := range res {
		rep.attempted++
		switch {
		case r.err != nil:
			rep.fail("%v", r.err)
		case ref[i] == "":
			ref[i] = r.digest
		case r.digest != ref[i]:
			rep.fail("%s: digest %s differs from the earlier %s", runs[i].id, r.digest, ref[i])
		}
	}
}

func (rep *report) fail(format string, args ...any) {
	rep.failed++
	rep.failures = append(rep.failures, fmt.Sprintf(format, args...))
}

// checkPins compares the first iteration's digests with the pinned ones.
// A mismatch is a failed run; without pins the check is reported skipped.
func (rep *report) checkPins(runs []runSpec, got []string, pins map[string]string, seed int64) {
	if pins == nil {
		rep.checks = append(rep.checks, fmt.Sprintf(
			"pinned digests: skipped (pinned for seed %d only, this is seed %d)", defaultSeed, seed))
		return
	}
	match := 0
	for i, r := range runs {
		switch want, ok := pins[r.id]; {
		case got[i] == "": // the run failed already
		case !ok:
			rep.fail("%s: no pinned digest", r.id)
		case got[i] != want:
			rep.fail("%s: digest %s differs from the pinned %s", r.id, got[i], want)
		default:
			match++
		}
	}
	rep.checks = append(rep.checks, fmt.Sprintf("pinned digests: %d of %d runs match", match, len(runs)))
}

// span is one traced run, from the start of Build to the end of the run.
type span struct {
	Run         string      `json:"run"`
	Workload    string      `json:"workload"`
	Config      string      `json:"config"`
	StartNs     int64       `json:"start_ns"` // from the traced iteration's start
	BuildNs     int64       `json:"build_ns"`
	EndNs       int64       `json:"end_ns"`
	Fingerprint fingerprint `json:"fingerprint"`
}

// trace runs one iteration with counters, spans and a CPU profile. On a
// workload with sharded runs it also runs each of them on the serial engine:
// the digests must agree, and the wall times give the shard speed-up.
func (b *bench) trace(rep *report, runs []runSpec, ref []string, totals [][]float64, untracedWall float64) error {
	// The GC's CPU time is a snapshot taken at the end of each collection,
	// so the iteration is bracketed by two collections.
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	var prof bytes.Buffer
	var res []runResult
	var wall time.Duration
	var t0 time.Time
	var gc0, cpu0 float64
	var profErr error
	alloc, _ := measureMemory(func() {
		metrics.Read(cpu)
		gc0, cpu0 = cpu[0].Value.Float64(), cpu[1].Value.Float64()
		if profErr = pprof.StartCPUProfile(&prof); profErr != nil {
			return
		}
		t0 = time.Now()
		res, wall = runAll(runs, b.workers, true)
		pprof.StopCPUProfile()
		runtime.GC()
		metrics.Read(cpu)
	})
	if profErr != nil {
		return fmt.Errorf("cpu profile: %w", profErr)
	}
	gcFrac := ratio(cpu[0].Value.Float64()-gc0, cpu[1].Value.Float64()-cpu0)
	rep.check(runs, res, ref)

	sum := counters{}
	var spans []span
	var runTimes []float64
	var busy, buildMax float64
	for i, r := range res {
		sum.add(r.layers)
		runTimes = append(runTimes, r.total.Seconds())
		busy += r.total.Seconds()
		buildMax = max(buildMax, r.build.Seconds())
		spans = append(spans, span{
			Run: runs[i].id, Workload: b.w.name, Config: runs[i].config,
			StartNs: r.start.Sub(t0).Nanoseconds(), BuildNs: r.build.Nanoseconds(),
			EndNs: r.start.Sub(t0).Nanoseconds() + r.total.Nanoseconds(), Fingerprint: b.fp,
		})
	}
	m := sum.metrics()
	m["sim.shard_speedup"] = b.shardSpeedup(rep, runs, ref, totals)
	m["cluster.build_s_max"] = buildMax
	m["parallel.runs"] = float64(len(runs))
	m["parallel.run_p50_s"] = median(runTimes)
	m["parallel.tail_idle_s"] = wall.Seconds() - busy/float64(min(b.workers, len(runs)))
	m["runtime.gc_cpu_frac"] = gcFrac
	m["runtime.alloc_bytes_per_event"] = ratio(alloc, sum["sim.events"])
	m["trace.overhead_frac"] = wall.Seconds()/untracedWall - 1
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for l, s := range shares {
		m[l+".cpu_share"] = s
	}
	rep.perLayer = m
	return b.writeTrace(spans, prof.Bytes())
}

// shardSpeedup reruns every sharded run on the serial engine, checks that
// both cores give the same digest, and returns the summed serial host time
// over the summed median sharded host time (0 when no run is sharded).
func (b *bench) shardSpeedup(rep *report, runs []runSpec, ref []string, totals [][]float64) float64 {
	var serial, sharded float64
	checked := 0
	for i, r := range runs {
		if r.cfg.IntraRunWorkers <= 1 {
			continue
		}
		s := r
		s.cfg.IntraRunWorkers = 0
		res := execute(s, false)
		rep.attempted++
		switch {
		case res.err != nil:
			rep.fail("%v", res.err)
		case res.digest != ref[i]:
			rep.fail("%s: serial digest %s differs from the sharded %s", r.id, res.digest, ref[i])
		}
		checked++
		serial += res.total.Seconds()
		sharded += median(totals[i])
	}
	if checked > 0 {
		rep.checks = append(rep.checks, fmt.Sprintf(
			"cross-core: %d sharded runs rerun on the serial engine; digests must match", checked))
	}
	return ratio(serial, sharded)
}

// writeTrace writes the spans, one JSON object a line, and the CPU profile.
func (b *bench) writeTrace(spans []span, prof []byte) error {
	if b.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(base+"-spans.jsonl", buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", prof, 0o644)
}

// measureMemory runs fn after a collection and returns the bytes it
// allocated and the largest heap size sampled while it ran.
func measureMemory(fn func()) (alloc, peak float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	runtime.GC()
	metrics.Read(s)
	alloc0 := s[0].Value.Uint64()
	var heap uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			heap = max(heap, s[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - alloc0), float64(max(heap, s[1].Value.Uint64()))
}

// print writes the fingerprint, the checks, every metric with its unit, and
// last the result line.
func (rep *report) print(stdout, stderr io.Writer, fp fingerprint, traced bool) error {
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	for _, c := range rep.checks {
		fmt.Fprintf(stdout, "check %s\n", c)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "FAIL %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}
	vals := maps.Clone(rep.endToEnd)
	maps.Copy(vals, rep.perLayer)
	shown, inResult := endToEnd, endToEnd
	if traced {
		shown, inResult = append(slices.Clone(endToEnd), perLayer...), perLayer
	}
	for _, d := range shown {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(stdout, "metric %s %v %s\n", d.name, v, d.unit)
	}
	for _, d := range inResult {
		result.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	fmt.Fprintf(stdout, "metric failed_frac %v frac\n", ratio(float64(rep.failed), float64(rep.attempted)))
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
