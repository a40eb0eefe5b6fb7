package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// smokeBench is one closed-loop iteration of w at tiny size.
func smokeBench(w workloadDef) *bench {
	return &bench{w: w, seed: defaultSeed, seconds: 1, size: tiny, workers: 2, progress: io.Discard}
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func printed(t *testing.T, rep *report, b *bench, traced bool) (string, resultLine) {
	t.Helper()
	var out bytes.Buffer
	if err := rep.print(&out, io.Discard, b.fp, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return out.String(), res
}

// TestSmoke runs every workload once at tiny size, traced, and checks that
// every named metric is printed with its unit and that the profiled CPU
// shares sum to 1.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := smokeBench(w)
			rep, err := b.run(true)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				text, res := printed(t, rep, b, traced)
				want := endToEnd
				shown := endToEnd
				if traced {
					want = perLayer
					shown = append(slices.Clone(endToEnd), perLayer...)
				}
				units := map[string]string{}
				for _, line := range strings.Split(text, "\n") {
					if f := strings.Fields(line); len(f) == 4 && f[0] == "metric" {
						units[f[1]] = f[3]
					}
				}
				for _, d := range shown {
					if units[d.name] != d.unit {
						t.Errorf("traced=%t: metric %s printed with unit %q, want %q", traced, d.name, units[d.name], d.unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%t: result has %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
						t.Errorf("traced=%t: result metric %s = %+v, want a value in %s", traced, d.name, m, d.unit)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("result correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
			}
			var sum float64
			for _, l := range profiledLayers {
				sum += rep.perLayer[l+".cpu_share"]
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("cpu shares sum to %v", sum)
			}
			if w.name == "paper-scale-sharded" && rep.perLayer["sim.shard_speedup"] <= 0 {
				t.Errorf("no shard speed-up measured")
			}
		})
	}
}

// TestPerturbedDigestFails pins the tiny sweep's digests with one of them
// altered: exactly that run must count as failed.
func TestPerturbedDigestFails(t *testing.T) {
	w, _ := lookupWorkload("scaling-sweep")
	b := smokeBench(w)
	runs := w.runs(b.seed, b.size)
	res, _ := runAll(runs, b.workers, false)
	b.pins = map[string]string{}
	for i, r := range runs {
		b.pins[r.id] = res[i].digest
	}

	rep, err := b.run(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("unperturbed pins: %d failed: %v", rep.failed, rep.failures)
	}

	b.pins[runs[1].id] = "0000000000000000"
	rep, err = b.run(false)
	if err != nil {
		t.Fatal(err)
	}
	_, line := printed(t, rep, b, false)
	if line.Failed != 1 || line.Correct {
		t.Fatalf("perturbed pin: correct=%t failed=%d, want one failure: %v", line.Correct, line.Failed, rep.failures)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program measures.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	same := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
