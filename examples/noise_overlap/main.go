// noise_overlap renders the paper's Figure 1 from live simulation: one
// 8-way node runs an 8-task bulk-synchronous job, first with random daemon
// scheduling (vanilla kernel), then with the parallel-aware prototype. The
// ASCII timelines show application execution ('#'), daemon activity ('d')
// and other system threads ('o') per CPU; co-scheduling visibly compacts
// the red into shared columns, enlarging the all-CPU "green" periods.
//
// Usage: go run ./examples/noise_overlap
package main

import (
	"fmt"
	"log"

	"coschedsim"
)

func main() {
	const seed = 3
	window := 2 * coschedsim.Second
	step := 25 * coschedsim.Millisecond

	show := func(name string, cfg coschedsim.Config) {
		cfg.CPUsPerNode = 8
		cfg.TasksPerNode = 8
		cfg.Kernel.NumCPUs = 8
		// Make daemons chattier so the 2s window has visible red.
		for i := range cfg.Noise.Daemons {
			cfg.Noise.Daemons[i].Period /= 4
			cfg.Noise.Daemons[i].Burst *= 2
		}
		// Cycle the co-scheduler fast enough to see whole windows.
		if cfg.Cosched != nil {
			p := *cfg.Cosched
			p.Period = 500 * coschedsim.Millisecond
			cfg.Cosched = &p
		}
		c := coschedsim.MustBuild(cfg)
		buf := coschedsim.NewTraceBuffer(4 << 20)
		buf.SkipTicks(true)
		c.Nodes[0].SetSink(buf)

		spec := coschedsim.BSPSpec{
			Steps:             400,
			ComputeMean:       10 * coschedsim.Millisecond,
			ComputeJitter:     coschedsim.Millisecond,
			AllreducesPerStep: 2,
		}
		res, err := coschedsim.RunBSP(c, spec, coschedsim.Hour)
		if err != nil || !res.Completed {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("--- %s (steps/s = %.1f) ---\n", name, float64(spec.Steps)/res.Wall.Seconds())
		fmt.Print(coschedsim.TraceTimeline(buf.Records(), 0, 0, window, step, "rank"))
		fmt.Println()
	}

	fmt.Println("Figure 1, live: '#' application, 'd' daemon, 'o' other, '.' idle")
	fmt.Printf("one column = %v of one CPU\n\n", step)
	show("random interference (vanilla kernel)", coschedsim.Vanilla(1, 8, seed))
	show("co-scheduled interference (prototype)", coschedsim.Prototype(1, 8, seed))
	fmt.Println("note how the prototype's 'd' columns line up across CPUs, leaving")
	fmt.Println("wide all-'#' spans in which the whole job makes progress.")
}
