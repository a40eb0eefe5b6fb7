package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
)

// detOptions is a Quick-shaped config (multiple nodes, multiple seeds)
// small enough for unit tests: enough independent runs that parallel
// scheduling would scramble any order-dependent aggregation.
func detOptions() Options {
	return Options{MaxNodes: 4, Calls: 96, Seeds: 2,
		ComputeGrain: 200 * sim.Microsecond, BaseSeed: 1}
}

// testOptions is the sizing every-runner tests use: detOptions, except for
// huge, whose paper-range fit needs at least two anchors (8 and 16 nodes)
// and whose smallest extended point is 24 nodes.
func testOptions(name string) Options {
	if name == "huge" {
		return Options{MaxNodes: 24, Calls: 4, Seeds: 1, ComputeGrain: 200 * sim.Microsecond, BaseSeed: 1}
	}
	return detOptions()
}

// TestRunDeadlineHonoredByEveryRunner checks that no runner renders a run
// its RunDeadline cut short: with a 1ns budget every run stops at its first
// event, and every runner must fail with the deadline error.
func TestRunDeadlineHonoredByEveryRunner(t *testing.T) {
	t.Parallel()
	for _, r := range Registry() {
		o := testOptions(r.Name)
		o.RunDeadline = time.Nanosecond
		tab, err := r.Run(o)
		if !errors.Is(err, errRunDeadline) || tab != nil {
			t.Errorf("%s: table %v, err %v; want no table and the deadline error", r.Name, tab != nil, err)
		}
	}
}

// TestEveryRunnerHonorsShardWorkers checks that every runner takes its
// widths from the one run path: with a budget of 2 and 2 shard workers each
// run is built with 2 intra-run workers, the pool shrinks so that pool
// width x run width stays within the budget, and the table renders its
// golden bytes.
func TestEveryRunnerHonorsShardWorkers(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ budget, shard, pool, width int }{
		{2, 2, 1, 2}, {4, 2, 2, 2}, {3, 2, 1, 2}, {2, 5, 1, 2}, {4, 1, 4, 0}, {4, 0, 4, 0},
	} {
		o := Options{Parallelism: tc.budget, ShardWorkers: tc.shard}
		if pool, width := o.widths(); pool != tc.pool || width != tc.width {
			t.Errorf("budget %d, shard %d: widths %d x %d, want %d x %d",
				tc.budget, tc.shard, pool, width, tc.pool, tc.width)
		}
	}
	for _, r := range Registry() {
		o := testOptions(r.Name)
		o.Parallelism, o.ShardWorkers = 2, 2
		var mu sync.Mutex
		var cfgs []cluster.Config
		o.build = func(cfg cluster.Config) (*cluster.Cluster, error) {
			mu.Lock()
			cfgs = append(cfgs, cfg)
			mu.Unlock()
			return cluster.Build(cfg)
		}
		tab, err := r.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		tab.CSV(&buf)
		checkGolden(t, r.Name, 2, buf.Bytes())
		if len(cfgs) == 0 {
			t.Errorf("%s built no cluster through the run path", r.Name)
		}
		for _, cfg := range cfgs {
			if cfg.IntraRunWorkers != 2 {
				t.Errorf("%s: a %d-node run was built with %d intra-run workers, want 2",
					r.Name, cfg.Nodes, cfg.IntraRunWorkers)
			}
		}
	}
}

// runAt renders one experiment at the given parallelism.
func runAt(t *testing.T, name string, parallelism int) *Table {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	o := detOptions()
	o.Parallelism = parallelism
	tab, err := r.Run(o)
	if err != nil {
		t.Fatalf("%s at parallelism %d: %v", name, parallelism, err)
	}
	return tab
}

// TestFig3ParallelBitIdentical is the determinism regression test for the
// work-pool harness: fig3 with Parallelism 1 and Parallelism 8 must agree
// on every cell, tag and note — and on the rendered bytes.
func TestFig3ParallelBitIdentical(t *testing.T) {
	t.Parallel()
	serial := runAt(t, "fig3", 1)
	par := runAt(t, "fig3", 8)
	if !reflect.DeepEqual(serial.Rows, par.Rows) {
		t.Errorf("rows differ:\nserial: %v\nparallel: %v", serial.Rows, par.Rows)
	}
	if !reflect.DeepEqual(serial.RowTags, par.RowTags) {
		t.Errorf("row tags differ: %v vs %v", serial.RowTags, par.RowTags)
	}
	if !reflect.DeepEqual(serial.Notes, par.Notes) {
		t.Errorf("notes differ:\nserial: %v\nparallel: %v", serial.Notes, par.Notes)
	}
	var a, b bytes.Buffer
	serial.Render(&a)
	par.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("rendered output differs:\n%s\n--- vs ---\n%s", a.String(), b.String())
	}
}

// TestSweepRunnersParallelBitIdentical extends the guarantee to the other
// pool-backed runner shapes: a variant sweep (ablation) and a BSP sweep.
func TestSweepRunnersParallelBitIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("several sweeps at two parallelism levels")
	}
	for _, name := range []string{"abl-ipi", "t5", "t2"} {
		serial := runAt(t, name, 1)
		par := runAt(t, name, 8)
		if !reflect.DeepEqual(serial.Rows, par.Rows) || !reflect.DeepEqual(serial.Notes, par.Notes) {
			t.Errorf("%s: parallel result differs from serial", name)
		}
	}
}

// TestMeasureScalingPropagatesError checks that a failing run surfaces its
// error through the pool instead of hanging or being swallowed.
func TestMeasureScalingPropagatesError(t *testing.T) {
	t.Parallel()
	o := detOptions()
	o.Parallelism = 4
	_, err := measureScaling(o, "errtest", func(nodes int, seed int64) cluster.Config {
		cfg := cluster.Vanilla(nodes, 16, seed)
		if nodes > 1 {
			cfg.Nodes = -1 // rejected by Config.Validate inside the worker
		}
		return cfg
	})
	if err == nil {
		t.Fatal("invalid config did not propagate an error")
	}
}

// TestProgressSerializedUnderParallelism checks that concurrent workers
// never interleave Progress callbacks (the callback is mutex-serialized)
// and that the set of reported lines matches serial execution.
func TestProgressSerializedUnderParallelism(t *testing.T) {
	t.Parallel()
	collect := func(parallelism int) []string {
		var mu sync.Mutex
		inCallback := false
		var lines []string
		o := detOptions()
		o.Parallelism = parallelism
		o.Progress = func(line string) {
			mu.Lock()
			if inCallback {
				mu.Unlock()
				t.Error("Progress invoked concurrently")
				return
			}
			inCallback = true
			mu.Unlock()
			lines = append(lines, line)
			mu.Lock()
			inCallback = false
			mu.Unlock()
		}
		if _, err := Fig3VanillaScaling(o); err != nil {
			t.Fatal(err)
		}
		return lines
	}
	serial := collect(1)
	par := collect(8)
	sort.Strings(serial)
	sort.Strings(par)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("progress line sets differ:\nserial: %v\nparallel: %v", serial, par)
	}
}

// TestCoschedRunsDeterministic repeats a co-scheduled (prototype)
// experiment within one process and requires identical results. This
// regresses a bug where the co-scheduler applied window priorities in Go
// map-iteration order, leaking randomized ordering into dispatch decisions
// — which broke same-seed reproducibility even in serial runs.
func TestCoschedRunsDeterministic(t *testing.T) {
	t.Parallel()
	run := func() []float64 {
		o := detOptions()
		o.Parallelism = 4
		tab, err := Fig5PrototypeScaling(o)
		if err != nil {
			t.Fatal(err)
		}
		return append(tab.Col("mean"), tab.Col("stddev")...)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("co-scheduled experiment not reproducible: %v vs %v", a, b)
	}
}

func TestValidateRejectsNegativeParallelism(t *testing.T) {
	t.Parallel()
	o := detOptions()
	o.Parallelism = -1
	if _, err := Fig3VanillaScaling(o); err == nil {
		t.Fatal("negative Parallelism accepted")
	}
}
