// noisemap measures a node's OS noise (the paper's 0.2-1.1% per CPU claim)
// and renders a Figure-1 style per-CPU timeline showing how much of the
// interference overlaps under the vanilla versus prototype schedulers.
//
// Usage: noisemap [-cpus 8] [-tasks 8] [-window 2s] [-col 25ms] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"coschedsim"
)

func main() {
	cpus := flag.Int("cpus", 8, "CPUs per node")
	tasks := flag.Int("tasks", 8, "parallel tasks on the node")
	window := flag.Duration("window", 2*time.Second, "timeline window (simulated)")
	col := flag.Duration("col", 25*time.Millisecond, "timeline column width (simulated)")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()
	if *tasks > *cpus {
		log.Fatalf("tasks (%d) cannot exceed cpus (%d)", *tasks, *cpus)
	}

	win := coschedsim.Time(window.Nanoseconds())
	step := coschedsim.Time(col.Nanoseconds())

	show := func(name string, cfg coschedsim.Config) {
		cfg.CPUsPerNode = *cpus
		cfg.TasksPerNode = *tasks
		cfg.Kernel.NumCPUs = *cpus
		if cfg.Cosched != nil {
			p := *cfg.Cosched
			p.Period = win / 4
			cfg.Cosched = &p
		}
		c := coschedsim.MustBuild(cfg)
		buf := coschedsim.NewTraceBuffer(8 << 20)
		buf.SkipTicks(true)
		c.Nodes[0].SetSink(buf)

		spec := coschedsim.BSPSpec{
			Steps:             int(win / (12 * coschedsim.Millisecond)),
			ComputeMean:       10 * coschedsim.Millisecond,
			ComputeJitter:     coschedsim.Millisecond,
			AllreducesPerStep: 2,
		}
		res, err := coschedsim.RunBSP(c, spec, coschedsim.Hour)
		if err != nil || !res.Completed {
			log.Fatalf("%s: %v", name, err)
		}
		rep := c.Noise[0].Measure(res.Wall)
		fmt.Printf("--- %s ---\n", name)
		fmt.Printf("OS noise: %.3f%% per CPU (paper band: 0.2%%-1.1%%); daemons %v, ticks %v, interrupts %v over %v\n",
			rep.PerCPUFraction*100, rep.DaemonCPU, rep.TickCPU, rep.InterruptCPU, res.Wall)
		fmt.Print(coschedsim.TraceTimeline(buf.Records(), 0, 0, win, step, "rank"))
		fmt.Println()
	}

	fmt.Printf("legend: '#' application, 'd' daemon, 'o' other system threads, '.' idle; one column = %v\n\n", col)
	show("vanilla kernel (random interference)", coschedsim.Vanilla(1, *cpus, *seed))
	show("prototype kernel + co-scheduler (overlapped interference)", coschedsim.Prototype(1, *cpus, *seed))
}
