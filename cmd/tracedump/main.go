// tracedump reruns the paper's Figure 4 forensics: the aggregate benchmark
// with AIX-style tracing enabled, the sorted per-call Allreduce times, and
// an attribution of the worst outliers to the daemons and system threads
// that consumed CPU during them (the paper caught a 15-minute cron job
// burning >600ms).
//
// Usage: tracedump [-nodes 8] [-calls 448] [-grain 1ms] [-top 5] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"coschedsim"
)

func main() {
	nodes := flag.Int("nodes", 8, "16-way nodes")
	calls := flag.Int("calls", 448, "timed Allreduce calls (the paper plots 448)")
	grain := flag.Duration("grain", time.Millisecond, "compute between calls (simulated)")
	top := flag.Int("top", 5, "outliers to attribute")
	seed := flag.Int64("seed", 1, "RNG seed")
	cron := flag.Duration("cron", 30*time.Second, "cron health-check period (paper: 15m)")
	flag.Parse()

	cfg := coschedsim.Vanilla(*nodes, 16, *seed)
	cfg.Noise.Cron.Period = coschedsim.Time(cron.Nanoseconds())
	c := coschedsim.MustBuild(cfg)
	buf := coschedsim.NewTraceBuffer(16 << 20)
	buf.SkipTicks(true)
	buf.FilterNode(0)
	// The buffer captures node 0's scheduler events and, as the benchmark's
	// tracer, its Allreduce marks.
	c.Nodes[0].SetSink(buf)

	res, err := coschedsim.RunAggregate(c, coschedsim.AggregateSpec{
		Loops: 1, CallsPerLoop: *calls,
		Compute:    coschedsim.Time(grain.Nanoseconds()),
		TraceEvery: 64,
		Tracer:     buf,
	}, coschedsim.Hour)
	if err != nil || !res.Completed {
		log.Fatalf("benchmark failed: %v", err)
	}

	s := coschedsim.Summarize(res.TimesUS)
	fmt.Printf("%d calls at %d procs (vanilla kernel, 16 tasks/node)\n", *calls, c.Procs())
	fmt.Printf("fastest %.0fus  median %.0fus  mean %.0fus  slowest %.0fus\n",
		s.Min, s.Median, s.Mean, s.Max)
	fmt.Printf("(paper sample at 944 procs: fastest ~ model+10%%, median +25%%, mean 2240us)\n\n")

	// Sorted-time profile (Figure 4's curve, as deciles).
	fmt.Println("sorted Allreduce times:")
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 95, 99, 100} {
		fmt.Printf("  p%-3.0f %10.0f us\n", p, coschedsim.Percentile(res.TimesUS, p))
	}

	// Attribute the slowest calls on node 0.
	type outlier struct {
		idx int
		us  float64
	}
	var outs []outlier
	for i, v := range res.TimesUS {
		outs = append(outs, outlier{i, v})
	}
	for i := 0; i < len(outs); i++ { // selection of top-k, k small
		maxJ := i
		for j := i + 1; j < len(outs); j++ {
			if outs[j].us > outs[maxJ].us {
				maxJ = j
			}
		}
		outs[i], outs[maxJ] = outs[maxJ], outs[i]
		if i+1 >= *top {
			break
		}
	}
	fmt.Printf("\ntop %d outliers, attributed on node 0:\n", *top)
	for i := 0; i < *top && i < len(outs); i++ {
		o := outs[i]
		start := res.Starts[o.idx]
		end := start + coschedsim.Time(o.us*float64(coschedsim.Microsecond))
		att := coschedsim.TraceAttribute(buf.Records(), 0, start, end, "rank")
		who := strings.Join(att.TopOffenders(4), ", ")
		if who == "" {
			who = "(no node-0 interference: the delay came from another node)"
		}
		fmt.Printf("  call %4d: %9.0f us — %s\n", o.idx, o.us, who)
	}
	if buf.Dropped() > 0 {
		fmt.Printf("\nwarning: trace buffer dropped %d records\n", buf.Dropped())
	}
}
