// Package gpfs models the General Parallel File System client stack at the
// level the paper's ALE3D experiment needs: a per-node mmfsd daemon (priority
// 40) that must get CPU time for any I/O to progress. Writes land in a
// bounded writeback buffer and return quickly until the buffer fills, after
// which writers block on the daemon's drain progress; reads always require
// daemon service.
//
// This is the mechanism behind the paper's central production finding: a
// co-scheduler that pins tasks at priority 30 starves mmfsd and *slows the
// application down*, while favored priority 41 (just above mmfsd) lets I/O
// daemons preempt the application and wins overall.
package gpfs

import (
	"fmt"

	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

// Config parameterizes the per-node GPFS client.
type Config struct {
	// DrainBytesPerSecond is how many buffered bytes one second of mmfsd
	// CPU time moves to stable storage (or fetches, for reads).
	DrainBytesPerSecond float64
	// BufferBytes is the writeback buffer capacity.
	BufferBytes int
	// ChunkCPU is the daemon's service quantum per dispatch.
	ChunkCPU sim.Time
	// Priority is mmfsd's dispatch priority (the paper: 40).
	Priority kernel.Priority
	// Workers is the number of mmfsd worker threads; GPFS's daemon is
	// heavily multithreaded, so its drain bandwidth scales with how many
	// CPUs the scheduler lets it have.
	Workers int
	// CopyBytesPerSecond is the in-memory copy rate charged to the writing
	// task for buffered writes.
	CopyBytesPerSecond float64
}

// DefaultConfig models a GPFS client of the ASCI White era: ~100 MB/s drain,
// 64 MB writeback buffer.
func DefaultConfig() Config {
	return Config{
		DrainBytesPerSecond: 100e6,
		BufferBytes:         64 << 20,
		ChunkCPU:            2 * sim.Millisecond,
		Priority:            kernel.PrioIODaemon,
		Workers:             4,
		CopyBytesPerSecond:  1e9,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.DrainBytesPerSecond <= 0:
		return fmt.Errorf("gpfs: drain rate must be positive")
	case c.BufferBytes <= 0:
		return fmt.Errorf("gpfs: buffer must be positive")
	case c.ChunkCPU <= 0:
		return fmt.Errorf("gpfs: chunk must be positive")
	case c.Workers <= 0:
		return fmt.Errorf("gpfs: need at least one worker")
	case c.CopyBytesPerSecond <= 0:
		return fmt.Errorf("gpfs: copy rate must be positive")
	}
	return nil
}

// Stats summarizes a node's I/O service activity.
type Stats struct {
	BytesWritten  uint64
	BytesRead     uint64
	WriterStalls  uint64 // writes that blocked on a full buffer
	DaemonCPUTime sim.Time
}

type writer struct {
	bytes int
	wake  func()
}

type reader struct {
	remaining float64 // bytes left to fetch
	wake      func()
}

// Service is one node's GPFS client: the mmfsd worker threads plus buffer
// state.
type Service struct {
	node *kernel.Node
	cfg  Config

	workers  []*kernel.Thread
	idle     []bool  // worker i blocked awaiting work
	claimed  float64 // backlog bytes already claimed by running workers
	buffered float64
	writers  []writer
	readers  []reader
	stat     Stats
	stalled  uint64
	stopFlag bool
}

// NewService attaches a GPFS client to the node. The mmfsd workers start
// immediately (blocked, awaiting work).
func NewService(n *kernel.Node, cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{node: n, cfg: cfg, idle: make([]bool, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		i := i
		name := "mmfsd"
		if i > 0 {
			name = fmt.Sprintf("mmfsd.%d", i)
		}
		w := n.NewDaemon(name, cfg.Priority, i%n.NumCPUs())
		s.workers = append(s.workers, w)
		w.Start(func() { s.workerLoop(i) })
	}
	return s, nil
}

// MustService is NewService for known-valid configurations.
func MustService(n *kernel.Node, cfg Config) *Service {
	s, err := NewService(n, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Daemon returns the first mmfsd worker thread (the co-scheduler tuning
// target; all workers share its priority).
func (s *Service) Daemon() *kernel.Thread { return s.workers[0] }

// Workers returns all mmfsd worker threads.
func (s *Service) Workers() []*kernel.Thread { return s.workers }

// Stats returns the service counters.
func (s *Service) Stats() Stats {
	st := s.stat
	st.WriterStalls = s.stalled
	for _, w := range s.workers {
		st.DaemonCPUTime += w.Stats().CPUTime
	}
	return st
}

// Buffered reports bytes currently awaiting drain.
func (s *Service) Buffered() int { return int(s.buffered) }

// Write buffers bytes for th, charging the copy cost; if the buffer is full
// the task blocks until mmfsd drains enough space. Call from th's
// continuation; then runs in continuation context.
func (s *Service) Write(th *kernel.Thread, bytes int, then func()) {
	if bytes < 0 {
		panic("gpfs: negative write")
	}
	copyCost := sim.Time(float64(bytes) / s.cfg.CopyBytesPerSecond * float64(sim.Second))
	if s.buffered+float64(bytes) <= float64(s.cfg.BufferBytes) {
		s.buffered += float64(bytes)
		s.stat.BytesWritten += uint64(bytes)
		s.kick()
		th.Run(copyCost, then)
		return
	}
	s.stalled++
	s.writers = append(s.writers, writer{bytes: bytes, wake: th.Wakeup})
	s.kick()
	th.Block(func() {
		th.Run(copyCost, then)
	})
}

// Read fetches bytes for th, blocking until mmfsd has served the request.
func (s *Service) Read(th *kernel.Thread, bytes int, then func()) {
	if bytes < 0 {
		panic("gpfs: negative read")
	}
	if bytes == 0 {
		th.Run(0, then)
		return
	}
	s.stat.BytesRead += uint64(bytes)
	s.readers = append(s.readers, reader{remaining: float64(bytes), wake: th.Wakeup})
	s.kick()
	th.Block(then)
}

// kick wakes parked workers while work exists.
func (s *Service) kick() {
	if !s.hasWork() {
		return
	}
	for i, parked := range s.idle {
		if parked {
			s.idle[i] = false
			s.workers[i].Wakeup()
		}
	}
}

func (s *Service) hasWork() bool {
	return s.buffered > 0 || len(s.readers) > 0 || len(s.writers) > 0
}

// pendingBytes is the drainable backlog: buffered writeback data plus
// outstanding read bytes.
func (s *Service) pendingBytes() float64 {
	p := s.buffered
	for _, r := range s.readers {
		p += r.remaining
	}
	return p
}

// workerLoop is one mmfsd worker: serve chunks while work exists, park
// otherwise. Service time is proportional to the backlog, capped at the
// chunk quantum, so a worker never burns CPU it has no data for.
func (s *Service) workerLoop(i int) {
	w := s.workers[i]
	if s.stopFlag {
		w.Exit()
		return
	}
	if !s.hasWork() {
		s.idle[i] = true
		w.Block(func() { s.workerLoop(i) })
		return
	}
	if s.pendingBytes() <= 0 {
		// Only stalled writers remain: admit what fits (bookkeeping, no
		// drain budget needed) and re-evaluate.
		s.drain(0)
	}
	// Claim a share of the unclaimed backlog so concurrent workers never
	// bill CPU for the same bytes.
	avail := s.pendingBytes() - s.claimed
	if avail <= 0 {
		s.idle[i] = true
		w.Block(func() { s.workerLoop(i) })
		return
	}
	chunkBytes := float64(s.cfg.ChunkCPU) / float64(sim.Second) * s.cfg.DrainBytesPerSecond
	claim := avail
	if claim > chunkBytes {
		claim = chunkBytes
	}
	s.claimed += claim
	cost := sim.Time(claim / s.cfg.DrainBytesPerSecond * float64(sim.Second))
	if cost < sim.Microsecond {
		cost = sim.Microsecond
	}
	w.Run(cost, func() {
		s.claimed -= claim
		s.drain(claim)
		s.kick() // admissions may have produced work for parked workers
		s.workerLoop(i)
	})
}

// drain applies budget bytes of service: reads first (they block tasks
// outright), then the writeback buffer, then admits stalled writers.
func (s *Service) drain(budget float64) {
	for budget > 0 && len(s.readers) > 0 {
		r := &s.readers[0]
		served := budget
		if served > r.remaining {
			served = r.remaining
		}
		r.remaining -= served
		budget -= served
		if r.remaining <= 0 {
			wake := r.wake
			s.readers = s.readers[1:]
			wake()
		}
	}
	if budget > 0 && s.buffered > 0 {
		drained := budget
		if drained > s.buffered {
			drained = s.buffered
		}
		s.buffered -= drained
	}
	// Admit stalled writers whose data now fits. A write larger than the
	// whole buffer streams through: it is admitted once the buffer is
	// empty (the buffer transiently exceeds capacity, blocking later
	// writers until it drains back down).
	for len(s.writers) > 0 {
		w := s.writers[0]
		fits := s.buffered+float64(w.bytes) <= float64(s.cfg.BufferBytes)
		oversize := w.bytes > s.cfg.BufferBytes && s.buffered == 0
		if !fits && !oversize {
			break
		}
		s.buffered += float64(w.bytes)
		s.stat.BytesWritten += uint64(w.bytes)
		s.writers = s.writers[1:]
		w.wake()
	}
}

// Stop terminates the workers after their current chunks (teardown).
func (s *Service) Stop() {
	s.stopFlag = true
	for i, parked := range s.idle {
		if parked {
			s.idle[i] = false
			s.workers[i].Wakeup()
		}
	}
}
