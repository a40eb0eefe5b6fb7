package experiment

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
)

// TestFaultSweepBitIdentical is the tentpole acceptance pin at table level:
// the abl-fault sweep — crashes, drops, retries, partitions, stalls,
// supervisor restarts, co-scheduler replans — renders byte-identically on
// the heap, wheel and sharded engine cores at 1, 2 and 4 workers.
func TestFaultSweepBitIdentical(t *testing.T) {
	t.Parallel()
	wheel := renderedWithCore(t, "abl-fault", sim.CoreWheel)
	sharded2 := renderedWithShardWorkers(t, "abl-fault", 2)
	if !bytes.Equal(wheel, sharded2) {
		t.Errorf("abl-fault differs between wheel and 2 shard workers\n--- wheel ---\n%s\n--- sharded ---\n%s",
			wheel, sharded2)
	}
	if testing.Short() {
		return
	}
	heap := renderedWithCore(t, "abl-fault", sim.CoreHeap)
	if !bytes.Equal(wheel, heap) {
		t.Errorf("abl-fault differs between wheel and heap cores\n--- wheel ---\n%s\n--- heap ---\n%s",
			wheel, heap)
	}
	for _, w := range []int{1, 4} {
		got := renderedWithShardWorkers(t, "abl-fault", w)
		if !bytes.Equal(wheel, got) {
			t.Errorf("abl-fault differs between serial and %d shard workers\n--- serial ---\n%s\n--- sharded ---\n%s",
				w, wheel, got)
		}
	}
}

// TestQuarantinePanickingJob checks the sweep-survival acceptance: a run
// that panics is quarantined into a "-" cell instead of aborting the sweep,
// the fit is suppressed, and the rest of the table is real data.
func TestQuarantinePanickingJob(t *testing.T) {
	t.Parallel()
	o := detOptions()
	o.Parallelism = 4
	o.build = func(cfg cluster.Config) (*cluster.Cluster, error) {
		if cfg.Nodes == 2 {
			panic("injected build panic")
		}
		return cluster.Build(cfg)
	}
	var lines []string
	o.Progress = func(l string) { lines = append(lines, l) }
	pts, err := measureScaling(o, "quarantine-test", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err != nil {
		t.Fatalf("panicking runs aborted the sweep: %v", err)
	}
	if len(pts) != 3 { // detOptions sweeps nodes 1, 2, 4
		t.Fatalf("got %d sweep points, want 3", len(pts))
	}
	if !math.IsNaN(pts[1].mean) {
		t.Fatalf("quarantined point mean = %v, want NaN", pts[1].mean)
	}
	if pts[1].procs != 32 {
		t.Fatalf("quarantined point procs = %d, want 32 (rows must stay aligned)", pts[1].procs)
	}
	if math.IsNaN(pts[0].mean) || math.IsNaN(pts[2].mean) {
		t.Fatal("healthy points poisoned by the quarantined one")
	}
	quarantined := 0
	for _, l := range lines {
		if strings.Contains(l, "QUARANTINED") {
			quarantined++
		}
	}
	if quarantined != o.Seeds {
		t.Fatalf("%d QUARANTINED progress lines, want %d", quarantined, o.Seeds)
	}

	tab := scalingTable("QT", "quarantine test", pts)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "-") {
		t.Error("rendered table has no '-' cell for the quarantined point")
	}
	if !strings.Contains(out, "fit skipped") {
		t.Errorf("rendered table does not note the skipped fit:\n%s", out)
	}
	if strings.Contains(out, "least-squares fit") {
		t.Errorf("fit computed over a NaN mean:\n%s", out)
	}
}

// TestAllRunsQuarantinedIsAnError checks the degenerate case: when every
// run is quarantined there is no table to render, so the sweep must fail
// loudly rather than produce all-dash rows.
func TestAllRunsQuarantinedIsAnError(t *testing.T) {
	t.Parallel()
	o := detOptions()
	o.build = func(cfg cluster.Config) (*cluster.Cluster, error) { panic("always") }
	_, err := measureScaling(o, "all-quarantined", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want all-runs-quarantined error", err)
	}
}

// TestRunDeadlineQuarantines checks Options.RunDeadline: a run over its
// wall budget is cut at the engine loop and surfaces as a quarantinable
// deadline error (here: every run, which is the loud failure mode).
func TestRunDeadlineQuarantines(t *testing.T) {
	t.Parallel()
	o := detOptions()
	o.Parallelism = 2
	o.RunDeadline = time.Nanosecond
	_, err := measureScaling(o, "deadline-test", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want all-runs-quarantined error from the deadline", err)
	}
}

// openCheckpoint opens a checkpoint for o and closes it when the test ends.
func openCheckpoint(t *testing.T, path string, resume bool, o Options) *Checkpoint {
	t.Helper()
	cp, err := OpenCheckpoint(path, resume, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.Close() })
	return cp
}

// renderRunner runs one experiment and returns its rendered text plus CSV
// bytes and its progress lines.
func renderRunner(t *testing.T, run func(Options) (*Table, error), o Options) ([]byte, []string) {
	t.Helper()
	var lines []string
	o.Progress = func(l string) { lines = append(lines, l) }
	tab, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	tab.CSV(&buf)
	return buf.Bytes(), lines
}

// TestCheckpointResume is the kill-and-resume acceptance: a sweep writes
// per-run results to a checkpoint; after "the process dies" (handle closed
// and the file truncated, as a kill mid-run leaves it), a resumed sweep
// replays the surviving entries, re-simulates only the missing ones, and
// renders a byte-identical table.
func TestCheckpointResume(t *testing.T) {
	t.Parallel()
	path := t.TempDir() + "/sweep.jsonl"
	base := detOptions()
	base.Parallelism = 2
	withCP := func(resume bool) Options {
		o := base
		o.Checkpoint = openCheckpoint(t, path, resume, base)
		return o
	}

	o := withCP(false)
	first, _ := renderRunner(t, Fig3VanillaScaling, o)
	o.Checkpoint.Close()

	// Simulate a sweep killed mid-run: keep the header and the first half of
	// the completed entries, plus a torn half-written record at the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	entries := len(lines) - 1 // minus header
	if entries != 6 {         // detOptions: nodes {1,2,4} x 2 seeds
		t.Fatalf("checkpoint holds %d entries, want 6", entries)
	}
	kept := lines[:1+entries/2]
	truncated := strings.Join(kept, "\n") + "\n" + `{"key":"torn`
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	o = withCP(true)
	second, progress := renderRunner(t, Fig3VanillaScaling, o)
	o.Checkpoint.Close()

	if !bytes.Equal(first, second) {
		t.Errorf("resumed table differs from the original:\n--- first ---\n%s\n--- resumed ---\n%s", first, second)
	}
	cached, simulated := 0, 0
	for _, l := range progress {
		if strings.Contains(l, "checkpoint cached") {
			cached++
		} else {
			simulated++
		}
	}
	if cached != entries/2 {
		t.Errorf("%d runs replayed from the checkpoint, want %d", cached, entries/2)
	}
	if simulated != entries-entries/2 {
		t.Errorf("%d runs re-simulated, want %d", simulated, entries-entries/2)
	}

	// A third resume replays everything: the resumed sweep appended the
	// re-simulated cells to the same file.
	third, progress3 := renderRunner(t, Fig3VanillaScaling, withCP(true))
	if !bytes.Equal(first, third) {
		t.Error("fully-cached resume differs from the original table")
	}
	for _, l := range progress3 {
		if !strings.Contains(l, "checkpoint cached") {
			t.Fatalf("fully-populated checkpoint still simulated a run: %s", l)
		}
	}
}

// TestCheckpointSharedAcrossRunners checks that runners sharing one handle
// in one process all land in the file: fig3 and fig6 write through one
// handle, and a resume from the file replays every run of both and renders
// identical bytes.
func TestCheckpointSharedAcrossRunners(t *testing.T) {
	t.Parallel()
	path := t.TempDir() + "/sweep.jsonl"
	o := detOptions()
	o.Checkpoint = openCheckpoint(t, path, false, o)
	fig3, _ := renderRunner(t, Fig3VanillaScaling, o)
	fig6, _ := renderRunner(t, Fig6FittedSlopes, o)
	if err := o.Checkpoint.Close(); err != nil {
		t.Fatal(err)
	}

	o.Checkpoint = openCheckpoint(t, path, true, o)
	fig3Again, lines3 := renderRunner(t, Fig3VanillaScaling, o)
	fig6Again, lines6 := renderRunner(t, Fig6FittedSlopes, o)
	if !bytes.Equal(fig3, fig3Again) || !bytes.Equal(fig6, fig6Again) {
		t.Error("replayed tables differ from the simulated ones")
	}
	lines := append(lines3, lines6...)
	if len(lines) != 18 { // fig3: 3 nodes x 2 seeds; fig6: twice that
		t.Errorf("%d progress lines, want 18 replayed runs", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, "checkpoint cached") {
			t.Errorf("shared checkpoint missed a run: %s", l)
		}
	}
}

// TestCheckpointWriteFailureFailsSweep checks that a failed checkpoint
// write is an error, not a silently dropped entry: record on a closed
// handle fails, and a sweep recording into one fails outright rather than
// quarantining its runs.
func TestCheckpointWriteFailureFailsSweep(t *testing.T) {
	t.Parallel()
	o := detOptions()
	cp := openCheckpoint(t, t.TempDir()+"/sweep.jsonl", false, o)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cp.record("k", runOut{procs: 1, mean: 1}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("record on a closed handle = %v, want os.ErrClosed", err)
	}
	o.Checkpoint = cp
	_, err := Fig3VanillaScaling(o)
	if !errors.Is(err, os.ErrClosed) || strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("sweep on a closed checkpoint: err = %v, want the write error unquarantined", err)
	}
}

// TestCheckpointFingerprintMismatchStartsFresh checks that a checkpoint
// written by a differently-sized sweep is discarded, not replayed into the
// wrong table, and that a handle opened for other options is refused.
func TestCheckpointFingerprintMismatchStartsFresh(t *testing.T) {
	t.Parallel()
	path := t.TempDir() + "/sweep.jsonl"
	a := detOptions()
	a.Checkpoint = openCheckpoint(t, path, false, a)
	if _, err := Fig3VanillaScaling(a); err != nil {
		t.Fatal(err)
	}
	a.Checkpoint.Close()

	b := detOptions()
	b.Calls = a.Calls * 2 // different sweep: fingerprints must differ
	b.Checkpoint = openCheckpoint(t, path, true, b)
	var lines []string
	b.Progress = func(l string) { lines = append(lines, l) }
	if _, err := Fig3VanillaScaling(b); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if strings.Contains(l, "checkpoint cached") {
			t.Fatalf("entry from a mismatched sweep replayed: %s", l)
		}
	}

	a.Checkpoint = b.Checkpoint
	if _, err := Fig3VanillaScaling(a); err == nil || !strings.Contains(err.Error(), "other sweep options") {
		t.Fatalf("handle opened for other options: err = %v, want a refusal", err)
	}
}
