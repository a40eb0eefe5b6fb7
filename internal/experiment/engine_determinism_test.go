package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
)

// renderedWithCore runs an experiment with every cluster built on the given
// engine core and returns its full rendered text plus CSV bytes.
func renderedWithCore(t *testing.T, name string, core sim.Core) []byte {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	o := detOptions()
	o.Parallelism = 2
	o.build = func(cfg cluster.Config) (*cluster.Cluster, error) {
		cfg.Core = core
		return cluster.Build(cfg)
	}
	tab, err := r.Run(o)
	if err != nil {
		t.Fatalf("%s with core %v: %v", name, core, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	tab.CSV(&buf)
	return buf.Bytes()
}

// TestEngineSwapBitIdentical is the engine-replacement determinism
// regression test: full experiment sweeps must produce byte-identical
// rendered tables and CSV under the timer-wheel core and the reference heap
// core. Any divergence in event ordering — including seq tie-breaks among
// same-time events — shows up here as a table diff.
func TestEngineSwapBitIdentical(t *testing.T) {
	t.Parallel()
	names := []string{"fig3"}
	if !testing.Short() {
		// A co-scheduled sweep (window machinery, IPIs) and a noise-heavy
		// ablation give the engines very different event mixes.
		names = append(names, "fig5", "abl-ipi")
	}
	for _, name := range names {
		wheel := renderedWithCore(t, name, sim.CoreWheel)
		heap := renderedWithCore(t, name, sim.CoreHeap)
		if !bytes.Equal(wheel, heap) {
			t.Errorf("%s: output differs between engine cores\n--- wheel ---\n%s\n--- heap ---\n%s",
				name, wheel, heap)
		}
		sharded := renderedWithCore(t, name, sim.CoreSharded)
		if !bytes.Equal(wheel, sharded) {
			t.Errorf("%s: output differs between wheel and sharded cores\n--- wheel ---\n%s\n--- sharded ---\n%s",
				name, wheel, sharded)
		}
	}
}

// renderedWithShardWorkers runs an experiment with the given intra-run
// worker count (0 = serial) under the default core and returns rendered
// text plus CSV bytes.
func renderedWithShardWorkers(t *testing.T, name string, workers int) []byte {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	o := testOptions(name)
	o.Parallelism = 3
	o.ShardWorkers = workers
	tab, err := r.Run(o)
	if err != nil {
		t.Fatalf("%s with %d shard workers: %v", name, workers, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	tab.CSV(&buf)
	return buf.Bytes()
}

// TestShardWorkersBitIdentical pins the tentpole guarantee end to end:
// sweeps run with intra-run parallelism (the sharded conservative-window
// core, real worker goroutines) produce byte-identical tables to serial
// runs. Since re-baseline №1 the list includes t3 (ALE3D + GPFS), t5 (BSP)
// and abl-jitter (jittered fabric) — the three sweeps that refused to shard
// before counter-based streams. Under -race this also exercises the worker
// pool for data races.
func TestShardWorkersBitIdentical(t *testing.T) {
	t.Parallel()
	names := []string{"fig3"}
	if !testing.Short() {
		names = append(names, "fig5", "t3", "t5", "abl-jitter")
	}
	for _, name := range names {
		serial := renderedWithShardWorkers(t, name, 0)
		for _, w := range []int{1, 2, 4} {
			got := renderedWithShardWorkers(t, name, w)
			if !bytes.Equal(serial, got) {
				t.Errorf("%s: output differs between serial and %d shard workers\n--- serial ---\n%s\n--- sharded ---\n%s",
					name, w, serial, got)
			}
		}
	}
}

// Golden hashes of rendered table + CSV output at testOptions scale. The
// t3, t5, abl-jitter and abl-fault pins date from re-baseline №1
// (counter-based RNG streams changed every sampled sequence); the rest were
// taken when every runner moved onto one run path, from the code before the
// move. Any engine, RNG, or ordering change shows up as a hash diff here
// regardless of worker count; update deliberately and record the move in
// EXPERIMENTS.md.
var goldenRendered = map[string]string{
	"fig1":          "a36823d1996da4d6d07f8163984afe550980f576f637656a68210b1d062274e1",
	"fig3":          "037739ed7c22a5478c1aeb9a738f0b0073ce522d4ce10b78661cd4ae83e64ffb",
	"fig4":          "743bd3c0249ea5c3dad36c5f2e6019b5fc68592db5ea6ad0c8f076f72814b326",
	"fig5":          "57d4f4bd7cbf99563231448dd6e865d7e7a6d974cc0740af57d955916f6927be",
	"fig6":          "387bc9c85091802218ade871c4b8ec1f5d262ef8fd0266ed7efad790e516fb6c",
	"t1":            "cd201855a502bfd33ae22b9ea752969d0d20154a3ffbe47bffb686b1fd6c14f9",
	"t2":            "8c314af13bf73cfdf7efd3226d4c0a136ae7d360b9c95ba6d11c1bc48845b94e",
	"t3":            "32281778bc49c6019ada9d242ce332ac017e4eba78c9aeddd03c5dfb0be9334d",
	"t4":            "7e7b0c774a43b8d7dd382afe2dc86fb2c40210db0ec079df4dfec835a64b94be",
	"t5":            "8eabd6ef1a71430b45e884fb04f91708d7a057a685f277b83de720aa54dc95d4",
	"abl-bigtick":   "a8b59e15e4933b9eca5554f2bcb6f14beaf7d5bc72b979098321e84c4dbe3484",
	"abl-duty":      "11281418a3dcc5241e952c22d63daa4eb4d59be163ecd2df7ed451ec2ce73dc7",
	"abl-ipi":       "fb51e798774b3acb1fe3506744232bfdb138fa7ac4cee3f1970322c168e78371",
	"abl-clock":     "2bc1f463939175a8ba49f9d2b0cc3cc0bb70471fe077d8b6fe329ed5a484f5b8",
	"abl-ticks":     "ed560ad6910376f0c8abe1037645018bcf320df67caf891e8a33bfbd0f356c82",
	"abl-hints":     "d494ca750f0537782b428e469e448c25c7cc7c36587d2076d5e39cc54159798f",
	"abl-hwcoll":    "a3c3c862f32999af4e5a095217d3e9e4e165496bd7f667b0df5cd8126e246180",
	"abl-jitter":    "d7215f720f5059f3b357d40cdd568cedfcd1ac2649a6c7eeb41ab35ef0629f3b",
	"abl-gang":      "b5da303ae2212b0ef06949bc676813058cbb5e86d472574338685975c682e22b",
	"abl-fairshare": "0537b3d0463c37938a4ebcb2ca4982d2ba7d383671aec89898a42e470dc4fb00",
	"abl-fault":     "afb8f437b606b176779b3fe3611ff9eea82e27679e0595e21ca0886e9f9e1dbd",
	"huge":          "cf75ce6e07a6c87e78b9ff87256bc3e6822a0809afe01ef8a38446786c51eec9",
}

// checkGolden compares a runner's rendered bytes at w shard workers with
// its golden hash.
func checkGolden(t *testing.T, name string, w int, rendered []byte) {
	t.Helper()
	if got, want := fmt.Sprintf("%x", sha256.Sum256(rendered)), goldenRendered[name]; got != want {
		t.Errorf("%s @ %d workers: rendered sha256 = %s, want %s", name, w, got, want)
	}
}

// TestGoldenHashes pins the exact rendered bytes of every runner on the
// serial engine, and of the sweeps the sharding gate used to exclude at 2
// and 4 shard workers too (TestEveryRunnerHonorsShardWorkers checks every
// runner at 2). Unlike the pairwise bit-identity tests above, an embedded
// hash also catches drift that affects *all* engine cores equally.
func TestGoldenHashes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full sweep runs")
	}
	if len(goldenRendered) != len(Registry()) {
		t.Errorf("%d golden hashes for %d runners", len(goldenRendered), len(Registry()))
	}
	for _, r := range Registry() {
		checkGolden(t, r.Name, 0, renderedWithShardWorkers(t, r.Name, 0))
	}
	for _, name := range []string{"t3", "t5", "abl-jitter", "abl-fault"} {
		for _, w := range []int{2, 4} {
			checkGolden(t, name, w, renderedWithShardWorkers(t, name, w))
		}
	}
}
