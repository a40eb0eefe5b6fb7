package experiment

import (
	"bytes"
	"strings"
	"testing"

	"coschedsim/internal/sim"
)

// tiny keeps unit-test experiment runs fast: structural checks, not
// statistical ones.
func tiny() Options {
	return Options{MaxNodes: 2, Calls: 64, Seeds: 1, ComputeGrain: 200 * sim.Microsecond, BaseSeed: 1}
}

// mid is big enough for directional shape checks but still seconds of wall
// time.
func mid() Options {
	return Options{MaxNodes: 8, Calls: 256, Seeds: 1, ComputeGrain: sim.Millisecond,
		Window: 1500 * sim.Millisecond, BaseSeed: 1}
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	want := []string{"fig1", "fig3", "fig4", "fig5", "fig6",
		"t1", "t2", "t3", "t4", "t5",
		"abl-bigtick", "abl-duty", "abl-ipi", "abl-clock", "abl-ticks",
		"abl-hints", "abl-hwcoll", "abl-jitter", "abl-gang", "abl-fairshare",
		"abl-fault", "huge"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].Name, name)
		}
		if reg[i].Run == nil || reg[i].Describe == "" {
			t.Errorf("registry entry %s incomplete", name)
		}
	}
	if _, ok := Lookup("fig3"); !ok {
		t.Error("Lookup(fig3) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestOptionsValidate(t *testing.T) {
	t.Parallel()
	for _, o := range []Options{{}, {MaxNodes: 1}, {MaxNodes: 1, Calls: 1}} {
		if _, err := Fig3VanillaScaling(o); err == nil {
			t.Errorf("accepted options %+v", o)
		}
	}
	if Full().MaxNodes != 59 {
		t.Errorf("Full MaxNodes = %d, want the paper's 59", Full().MaxNodes)
	}
}

func TestCallsForWindow(t *testing.T) {
	t.Parallel()
	o := Options{MaxNodes: 4, Calls: 100, Seeds: 1, ComputeGrain: sim.Millisecond, Window: sim.Second}
	small := o.callsFor(16)
	big := o.callsFor(1024)
	if small <= 100 {
		t.Errorf("callsFor(16) = %d, want > floor", small)
	}
	if big >= small {
		t.Errorf("callsFor should shrink as clean time grows: %d vs %d", big, small)
	}
	o.Window = 0
	if got := o.callsFor(1024); got != 100 {
		t.Errorf("callsFor without window = %d, want Calls", got)
	}
	o.Window = sim.Hour
	if got := o.callsFor(16); got != 20000 {
		t.Errorf("callsFor cap = %d, want 20000", got)
	}
}

func TestNodeSweep(t *testing.T) {
	t.Parallel()
	s := nodeSweep(59)
	if s[0] != 1 || s[len(s)-1] != 59 {
		t.Fatalf("sweep(59) = %v", s)
	}
	s = nodeSweep(10)
	if s[len(s)-1] != 10 {
		t.Fatalf("sweep(10) = %v, want trailing 10", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("sweep not increasing: %v", s)
		}
	}
	if got := nodeSweep(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sweep(1) = %v", got)
	}
}

func TestTableHelpers(t *testing.T) {
	t.Parallel()
	tab := &Table{ID: "X", Title: "test", Cols: []Column{{Name: "a"}, {Name: "b", Unit: "us"}}}
	tab.AddRow("r1", 1, 2)
	tab.AddRow("r2", 3, 4)
	tab.AddNote("hello %d", 7)
	if got := tab.Col("b"); got[0] != 2 || got[1] != 4 {
		t.Fatalf("Col = %v", got)
	}
	if tab.Cell("r2", "a") != 3 {
		t.Fatal("Cell lookup wrong")
	}
	if tab.Row("r3") != nil {
		t.Fatal("missing row should be nil")
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X: test ==", "b (us)", "r1", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	tab.CSV(&buf)
	if !strings.Contains(buf.String(), "r2,3,4") {
		t.Fatalf("csv missing row: %s", buf.String())
	}
}

func TestTableAddRowMismatchPanics(t *testing.T) {
	t.Parallel()
	tab := &Table{ID: "X", Cols: []Column{{Name: "a"}}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched AddRow did not panic")
		}
	}()
	tab.AddRow("r", 1, 2)
}

func TestFig3Structure(t *testing.T) {
	t.Parallel()
	tab, err := Fig3VanillaScaling(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "FIG3" || len(tab.Rows) != 2 { // nodes 1, 2
		t.Fatalf("fig3 table = %+v", tab)
	}
	procs := tab.Col("procs")
	if procs[0] != 16 || procs[1] != 32 {
		t.Fatalf("procs = %v", procs)
	}
	for _, m := range tab.Col("mean") {
		if m <= 0 {
			t.Fatalf("non-positive mean in %v", tab.Col("mean"))
		}
	}
}

func TestFig5MeansGrowWithScale(t *testing.T) {
	t.Parallel()
	tab, err := Fig5PrototypeScaling(tiny())
	if err != nil {
		t.Fatal(err)
	}
	means := tab.Col("mean")
	if means[1] <= means[0] {
		t.Fatalf("prototype mean did not grow with procs: %v", means)
	}
}

func TestFig6ShapeAtModerateScale(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-sweep comparison")
	}
	tab, err := Fig6FittedSlopes(mid())
	if err != nil {
		t.Fatal(err)
	}
	vanSlope := tab.Cell("vanilla", "slope")
	protoSlope := tab.Cell("prototype", "slope")
	if vanSlope <= 0 || protoSlope <= 0 {
		t.Fatalf("non-positive slopes: %v vs %v", vanSlope, protoSlope)
	}
	// The paper's headline shape: the prototype's growth rate is a small
	// fraction of vanilla's (paper 3.2x; we accept anything >= 1.5x).
	if vanSlope < 1.5*protoSlope {
		t.Fatalf("vanilla slope %.3f not clearly above prototype %.3f", vanSlope, protoSlope)
	}
}

func TestFig1OverlapShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("two BSP runs")
	}
	tab, err := Fig1NoiseOverlap(tiny())
	if err != nil {
		t.Fatal(err)
	}
	random := tab.Cell("random", "allcpu-app")
	cosched := tab.Cell("co-scheduled", "allcpu-app")
	if cosched <= random {
		t.Fatalf("co-scheduled all-CPU fraction %.1f%% not above random %.1f%%", cosched, random)
	}
}

func TestFig4Structure(t *testing.T) {
	t.Parallel()
	o := tiny()
	o.Calls = 64 // raised to 448 internally
	tab, err := Fig4OutlierProfile(o)
	if err != nil {
		t.Fatal(err)
	}
	times := tab.Col("time")
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("percentile times not monotone: %v", times)
		}
	}
	if len(tab.Notes) < 3 {
		t.Fatalf("fig4 notes missing: %v", tab.Notes)
	}
}

func TestT1Structure(t *testing.T) {
	t.Parallel()
	tab, err := T1FifteenPerNode(tiny())
	if err != nil {
		t.Fatal(err)
	}
	p15 := tab.Col("procs15")
	p16 := tab.Col("procs16")
	if p15[0] != 15 || p16[0] != 16 {
		t.Fatalf("procs = %v / %v", p15, p16)
	}
}

func TestT2Structure(t *testing.T) {
	t.Parallel()
	tab, err := T2PopulatedSpeedup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Cell("vanilla-15tpn", "procs") != 30 || tab.Cell("prototype-16tpn", "procs") != 32 {
		t.Fatalf("t2 procs wrong: %+v", tab.Rows)
	}
}

func TestT4NoiseBand(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("60s noise accounting")
	}
	tab, err := T4Noise(tiny())
	if err != nil {
		t.Fatal(err)
	}
	std := tab.Cell("noise-standard", "value")
	heavy := tab.Cell("noise-heavy", "value")
	if std < 0.15 || std > 1.1 {
		t.Fatalf("standard noise %.3f%% outside the paper's band", std)
	}
	if heavy <= std {
		t.Fatalf("heavy noise %.3f%% not above standard %.3f%%", heavy, std)
	}
}

func TestT5Structure(t *testing.T) {
	t.Parallel()
	tab, err := T5AllreduceFraction(tiny())
	if err != nil {
		t.Fatal(err)
	}
	shares := tab.Col("share")
	for _, s := range shares {
		if s <= 0 || s >= 100 {
			t.Fatalf("share %v out of range", s)
		}
	}
	if shares[len(shares)-1] <= shares[0] {
		t.Fatalf("allreduce share did not grow with scale: %v", shares)
	}
}

func TestAblationStructures(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("five ablation sweeps")
	}
	o := tiny()
	for _, tc := range []struct {
		name string
		rows int
	}{
		{"abl-bigtick", 6},
		{"abl-ipi", 4},
		{"abl-ticks", 4},
	} {
		r, ok := Lookup(tc.name)
		if !ok {
			t.Fatalf("missing %s", tc.name)
		}
		tab, err := r.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tab.Rows) != tc.rows {
			t.Fatalf("%s rows = %d, want %d", tc.name, len(tab.Rows), tc.rows)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	t.Parallel()
	run := func() []float64 {
		tab, err := Fig3VanillaScaling(tiny())
		if err != nil {
			t.Fatal(err)
		}
		return tab.Col("mean")
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("experiment not deterministic: %v vs %v", a, b)
		}
	}
}
