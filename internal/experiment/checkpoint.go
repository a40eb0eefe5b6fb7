package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
)

// Sweep checkpointing: every completed run's aggregate result is appended to
// a JSONL file as it finishes, and a sweep resumed from it replays
// those entries instead of re-simulating — so an interrupted -huge sweep
// restarts where it left off. Correctness rests on two facts: every run's
// seed derives from its sweep coordinates (never from execution order), and
// Go's JSON float64 round-trips exactly — a replayed cell is bit-identical
// to a re-run one.

// cpHeader is the checkpoint file's first line. The fingerprint ties the
// file to the option values that determine run outputs; a mismatched file is
// discarded rather than replayed into the wrong sweep.
type cpHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// cpEntry is one completed run.
type cpEntry struct {
	Key    string  `json:"key"`
	Procs  int     `json:"procs"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

// valid reports whether the entry could have been recorded by a completed
// run: it names a run, ran at least one process and measured a positive
// mean with a non-negative spread.
func (e cpEntry) valid() bool {
	return e.Key != "" && e.Procs > 0 && e.Mean > 0 && e.Stddev >= 0
}

// fingerprint digests the option fields that determine run outputs.
// Parallelism and ShardWorkers are deliberately excluded: outputs are
// bit-identical at any worker count, so a sweep may resume with a different
// worker budget than the one that started it.
func (o Options) fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("seed=%d nodes=%d calls=%d seeds=%d grain=%d window=%d",
		o.BaseSeed, o.MaxNodes, o.Calls, o.Seeds, o.ComputeGrain, o.Window)))
	return fmt.Sprintf("%x", h[:8])
}

// cpKey identifies one run within a checkpoint file.
func cpKey(j runDesc, streamed bool) string {
	return fmt.Sprintf("%s|%d|%d|%d|%t", j.Label, j.Nodes, j.SeedIdx, j.Seed, streamed)
}

// Checkpoint is an open checkpoint file: a cache of completed entries plus
// an append handle. Runners that share a file share one handle, so a later
// sweep never truncates an earlier sweep's entries. Safe for concurrent
// record/lookup from pool workers.
type Checkpoint struct {
	path  string
	fp    string // fingerprint of the options the file was opened for
	mu    sync.Mutex
	f     *os.File
	cache map[string]runOut
}

// OpenCheckpoint opens the checkpoint at path for sweeps run with options
// o. With resume set and a file whose fingerprint matches o's, existing
// entries are loaded; otherwise the file is started fresh. Lines that do
// not parse — e.g. a half-written record from a killed process — or parse
// to an invalid entry are skipped, as is every later line of a key already
// loaded, so the first record of a run wins. The file is rewritten with
// only the loaded lines before appending resumes: a torn record with no
// trailing newline would otherwise corrupt the first entry appended after
// it.
func OpenCheckpoint(path string, resume bool, o Options) (*Checkpoint, error) {
	cp := &Checkpoint{path: path, fp: o.fingerprint(), cache: map[string]runOut{}}
	var keep []string
	if resume {
		if data, err := os.ReadFile(path); err == nil {
			lines := strings.Split(string(data), "\n")
			var hdr cpHeader
			if len(lines) > 0 && json.Unmarshal([]byte(lines[0]), &hdr) == nil && hdr.Fingerprint == cp.fp {
				for _, ln := range lines[1:] {
					var e cpEntry
					if json.Unmarshal([]byte(ln), &e) != nil || !e.valid() {
						continue
					}
					if _, dup := cp.cache[e.Key]; dup {
						continue
					}
					cp.cache[e.Key] = runOut{procs: e.Procs, mean: e.Mean, stddev: e.Stddev}
					keep = append(keep, ln)
				}
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: create checkpoint %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	hdr, _ := json.Marshal(cpHeader{Fingerprint: cp.fp})
	fmt.Fprintf(w, "%s\n", hdr)
	for _, ln := range keep {
		fmt.Fprintf(w, "%s\n", ln)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: write checkpoint %s: %w", path, err)
	}
	cp.f = f
	return cp, nil
}

// Close closes the checkpoint file; later records fail.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.f.Close()
}

// lookup returns a previously completed run's result. A nil checkpoint
// holds nothing.
func (cp *Checkpoint) lookup(key string) (runOut, bool) {
	if cp == nil {
		return runOut{}, false
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	r, ok := cp.cache[key]
	return r, ok
}

// record appends one completed run, synced so a kill mid-sweep loses at most
// the entry being written (which resume then skips as unparsable). A nil
// checkpoint records nothing.
func (cp *Checkpoint) record(key string, r runOut) error {
	if cp == nil {
		return nil
	}
	line, err := json.Marshal(cpEntry{Key: key, Procs: r.procs, Mean: r.mean, Stddev: r.stddev})
	if err != nil {
		return fmt.Errorf("experiment: checkpoint %s: %w", cp.path, err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.cache[key] = r
	if _, err := fmt.Fprintf(cp.f, "%s\n", line); err != nil {
		return fmt.Errorf("experiment: checkpoint %s: %w", cp.path, err)
	}
	if err := cp.f.Sync(); err != nil {
		return fmt.Errorf("experiment: checkpoint %s: %w", cp.path, err)
	}
	return nil
}
