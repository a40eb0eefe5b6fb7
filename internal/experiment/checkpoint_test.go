package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzOpenCheckpoint feeds arbitrary checkpoint files to a resuming open:
// torn tails, mismatched fingerprints, duplicate keys and out-of-range
// values. Opening must not panic, must load only valid entries (each also
// kept in the rewritten file, one line per entry), and must be idempotent:
// re-opening the rewritten file loads the same entries and leaves the
// same bytes.
func FuzzOpenCheckpoint(f *testing.F) {
	o := detOptions()
	hdr := `{"fingerprint":"` + o.fingerprint() + `"}` + "\n"
	good := `{"key":"fig3|1|0|7|false","procs":16,"mean":350.5,"stddev":2}` + "\n"
	for _, seed := range []string{
		hdr + good,
		hdr + good + `{"key":"fig3|2|0|8|false","procs":32,"mea`,                                 // torn tail
		`{"fingerprint":"other"}` + "\n" + good,                                                  // mismatched fingerprint
		hdr + good + `{"key":"fig3|1|0|7|false","procs":16,"mean":999,"stddev":0}` + "\n" + good, // duplicate key
		hdr + `{"key":"","procs":16,"mean":1,"stddev":0}` + "\n" +
			`{"key":"a","procs":0,"mean":1,"stddev":0}` + "\n" +
			`{"key":"b","procs":1,"mean":0,"stddev":0}` + "\n" +
			`{"key":"c","procs":1,"mean":1,"stddev":-1}` + "\n" +
			`{"key":"d","procs":1,"mean":-3,"stddev":0}` + "\n" + good, // invalid values
		"",
		"\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (map[string]runOut, []byte) {
			t.Helper()
			cp, err := OpenCheckpoint(path, true, o)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Close()
			cache := make(map[string]runOut, len(cp.cache))
			for k, r := range cp.cache {
				cache[k] = r
			}
			written, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return cache, written
		}
		cache, written := open()
		for k, r := range cache {
			if !(cpEntry{Key: k, Procs: r.procs, Mean: r.mean, Stddev: r.stddev}).valid() {
				t.Fatalf("loaded invalid entry %q: %+v", k, r)
			}
		}
		if lines := strings.Count(string(written), "\n"); lines != 1+len(cache) {
			t.Fatalf("rewrite has %d lines for %d loaded entries plus the header", lines, len(cache))
		}
		again, rewritten := open()
		if !reflect.DeepEqual(cache, again) {
			t.Fatalf("re-open loaded %v, first open %v", again, cache)
		}
		if !bytes.Equal(written, rewritten) {
			t.Fatalf("re-open rewrote\n%q\nfirst open wrote\n%q", rewritten, written)
		}
	})
}

// TestCheckpointReplayValidates pins the replay rules on one file: invalid
// entries are dropped from the cache and the rewrite, and a duplicated key
// keeps its first record in both.
func TestCheckpointReplayValidates(t *testing.T) {
	t.Parallel()
	o := detOptions()
	hdr := `{"fingerprint":"` + o.fingerprint() + `"}`
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	first := `{"key":"k","procs":4,"mean":10,"stddev":1}`
	data := strings.Join([]string{
		hdr,
		first,
		`{"key":"k","procs":4,"mean":99,"stddev":1}`,
		`{"key":"neg","procs":4,"mean":10,"stddev":-1}`,
		`{"key":"zero","procs":0,"mean":10,"stddev":1}`,
		`{"key":"","procs":4,"mean":10,"stddev":1}`,
		`{"key":"torn","procs":4,`,
	}, "\n")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path, true, o)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	want := map[string]runOut{"k": {procs: 4, mean: 10, stddev: 1}}
	if !reflect.DeepEqual(cp.cache, want) {
		t.Errorf("cache %v, want %v", cp.cache, want)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(written), hdr+"\n"+first+"\n"; got != want {
		t.Errorf("rewrite\n%q\nwant\n%q", got, want)
	}
}
