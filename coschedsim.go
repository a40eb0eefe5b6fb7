// Package coschedsim is a simulation-based reproduction of "Improving the
// Scalability of Parallel Jobs by adding Parallel Awareness to the Operating
// System" (Jones et al., SC 2003).
//
// The paper modifies the AIX kernel and adds a userspace co-scheduler so
// that operating-system interference — daemons, cron jobs, timer-tick
// processing and MPI progress-engine threads — is reduced and, crucially,
// overlapped across the CPUs of an SMP node and across the nodes of a
// cluster. This package reproduces that system as a deterministic
// discrete-event simulation: an AIX-like priority scheduler per node
// (lazy or IPI-forced preemption, staggered or aligned ticks, big ticks,
// global daemon queues), an SP-switch fabric with a globally synchronized
// clock, a standard daemon/cron/interrupt noise population, an MPI runtime
// with recursive-doubling collectives and poll-mode waits, a GPFS-style I/O
// service, and the paper's co-scheduler (favored/unfavored priority cycling
// aligned to the cluster clock, /etc/poe.priority administration, control
// pipe registration and the attach/detach escape).
//
// The root package is a curated facade over the internal packages. Three
// layers are exposed:
//
//   - Cluster construction: Config and the scenario presets (Vanilla,
//     Prototype, ALE3D*) build a runnable cluster whose MPI job you program
//     in continuation-passing style against Rank.
//   - Workloads: the paper's benchmark (AggregateSpec/RunAggregate), the
//     bulk-synchronous model (BSPSpec/RunBSP) and the production proxy
//     (ALE3DSpec/RunALE3D).
//   - Experiments: every figure and table of the paper's evaluation as a
//     named, parameterized run (Experiments, RunExperiment).
//
// A minimal comparison of the paper's two headline configurations:
//
//	van := coschedsim.MustBuild(coschedsim.Vanilla(4, 16, 1))
//	res, _ := coschedsim.RunAggregate(van, coschedsim.AggregateSpec{
//		Loops: 1, CallsPerLoop: 1000,
//	}, coschedsim.Hour)
//
// Everything is deterministic: the same seed reproduces a run bit-for-bit.
// Experiment sweeps execute their independent runs on a work pool spanning
// all cores (ExperimentOptions.Parallelism; 1 = serial) and remain
// bit-identical at any worker count, because run seeds derive from the
// sweep coordinates rather than execution order.
package coschedsim

import (
	"coschedsim/internal/batch"
	"coschedsim/internal/cluster"
	"coschedsim/internal/cosched"
	"coschedsim/internal/experiment"
	"coschedsim/internal/gpfs"
	"coschedsim/internal/kernel"
	"coschedsim/internal/mpi"
	"coschedsim/internal/network"
	"coschedsim/internal/noise"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
	"coschedsim/internal/trace"
	"coschedsim/internal/workload"
)

// Simulated time.
type Time = sim.Time

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Cluster construction.
type (
	// Config fully describes a cluster scenario: nodes, kernel policy,
	// noise, network, MPI cost model, co-scheduler and I/O service.
	Config = cluster.Config
	// Cluster is a built, ready-to-launch system.
	Cluster = cluster.Cluster
	// KernelOptions selects a node's scheduling policies.
	KernelOptions = kernel.Options
	// Priority is an AIX-style dispatch priority (smaller = more favored).
	Priority = kernel.Priority
	// CoschedParams is one /etc/poe.priority record.
	CoschedParams = cosched.Params
	// NoiseConfig selects the daemon/cron/interrupt population.
	NoiseConfig = noise.Config
	// NetworkConfig parameterizes the switch fabric.
	NetworkConfig = network.Config
	// MPIConfig parameterizes the MPI runtime.
	MPIConfig = mpi.Config
	// GPFSConfig parameterizes the per-node I/O service.
	GPFSConfig = gpfs.Config
	// Rank is one MPI task; job programs are written against it.
	Rank = mpi.Rank
)

// Scenario presets (second argument is tasks per 16-way node).
var (
	// Vanilla is the standard AIX 4.3.3 configuration: lazy preemption,
	// staggered 10ms ticks, bound daemons, 400ms MPI timer threads, no
	// co-scheduler.
	Vanilla = cluster.Vanilla
	// Prototype is the paper's full solution: big ticks, aligned ticks,
	// IPI preemption, global daemon queue, co-scheduler, switch clock,
	// quieted MPI timer threads.
	Prototype = cluster.Prototype
	// PrototypeKernelOnly applies the kernel modifications without the
	// co-scheduler.
	PrototypeKernelOnly = cluster.PrototypeKernelOnly
	// ALE3DVanilla / ALE3DNaive / ALE3DTuned are the production-code
	// scenarios of §5.3 (GPFS attached).
	ALE3DVanilla = cluster.ALE3DVanilla
	ALE3DNaive   = cluster.ALE3DNaive
	ALE3DTuned   = cluster.ALE3DTuned
	// BaseConfig is the shared scenario skeleton for custom variations.
	BaseConfig = cluster.BaseConfig
)

// Build constructs a cluster from a config.
func Build(cfg Config) (*Cluster, error) { return cluster.Build(cfg) }

// MustBuild is Build for known-valid configurations.
func MustBuild(cfg Config) *Cluster { return cluster.MustBuild(cfg) }

// Workloads.
type (
	// AggregateSpec configures the paper's aggregate_trace benchmark.
	AggregateSpec = workload.AggregateSpec
	// AggregateResult holds its per-call timings.
	AggregateResult = workload.AggregateResult
	// BSPSpec configures a generic bulk-synchronous application.
	BSPSpec = workload.BSPSpec
	// BSPResult reports its collective share.
	BSPResult = workload.BSPResult
	// ALE3DSpec configures the production-code proxy.
	ALE3DSpec = workload.ALE3DSpec
	// ALE3DResult reports its phase breakdown.
	ALE3DResult = workload.ALE3DResult
)

// Workload runners.
var (
	RunAggregate       = workload.RunAggregate
	RunBSP             = workload.RunBSP
	RunALE3D           = workload.RunALE3D
	DefaultALE3DSpec   = workload.DefaultALE3DSpec
	DefaultAggregate   = workload.DefaultAggregateSpec
	DefaultNoise       = noise.StandardConfig
	QuietNoise         = noise.QuietConfig
	DefaultCosched     = cosched.DefaultParams
	IOAwareCosched     = cosched.IOAwareParams
	ParsePriorityFile  = cosched.ParseAdminFile
	LookupPriorityFile = cosched.LookupClass
)

// Experiments.
type (
	// Experiment is one named reproduction of a paper table or figure.
	Experiment = experiment.Runner
	// ExperimentOptions scales experiment runs.
	ExperimentOptions = experiment.Options
	// Table is an experiment result.
	Table = experiment.Table
)

// Experiment access.
var (
	// Experiments lists every figure/table/ablation runner.
	Experiments = experiment.Registry
	// LookupExperiment finds a runner by name ("fig3", "t2", ...).
	LookupExperiment = experiment.Lookup
	// QuickOptions and FullOptions are the standard sizes.
	QuickOptions = experiment.Quick
	FullOptions  = experiment.Full
)

// Statistics helpers used when post-processing results.
type (
	// Summary holds descriptive statistics.
	Summary = stats.Summary
	// Fit is a least-squares line.
	Fit = stats.Fit
)

// Statistics functions.
var (
	Summarize  = stats.Summarize
	Percentile = stats.Percentile
	LinearFit  = stats.LinearFit
	Speedup    = stats.Speedup
)

// Batch (spatial) scheduling — the paper's related-work category 2, with
// which the co-scheduler composes (one priority class per job).
type (
	// BatchRequest describes one batch job.
	BatchRequest = batch.Request
	// BatchRecord is a completed job's outcome.
	BatchRecord = batch.Record
	// BatchScheduler multiplexes jobs over dedicated node sets (FCFS +
	// EASY backfill).
	BatchScheduler = batch.Scheduler
)

// NewBatchScheduler builds a spatial scheduler over a cluster's nodes.
var NewBatchScheduler = batch.NewScheduler

// Tracing (the simulator's AIX-trace analogue).
type (
	// TraceBuffer captures scheduler events; install with
	// Cluster.Nodes[i].SetSink.
	TraceBuffer = trace.Buffer
	// TraceRecord is one captured event.
	TraceRecord = trace.Record
	// TraceAttribution summarizes who consumed CPU during an interval.
	TraceAttribution = trace.Attribution
)

// Tracing helpers.
var (
	NewTraceBuffer = trace.NewBuffer
	TraceAttribute = trace.Attribute
	// TraceTimeline renders a Figure-1 style per-CPU ASCII schedule.
	TraceTimeline = trace.Timeline
)
