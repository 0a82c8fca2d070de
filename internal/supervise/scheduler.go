package supervise

// Scheduler is the memory controller of a run: it maps sampled heap
// pressure to a worker-count target and a load-shedding level. Under
// pressure it first throttles the worker count — concurrency is the cheapest
// effort to shed, since every in-flight attempt holds a population, frames
// and simulators — and only once the run is down to a single worker does it
// shed per-fault search effort through the Level machinery. A run builds one
// from its Governor settings (Governor.Scheduler) and samples it once per
// committed targeted fault, in the schedule passes and the retry tail alike;
// the jobq fleet samples its own at scheduling points.
//
// The Scheduler must be sampled only at deterministic points, never from a
// timer: with the same pressure schedule, two runs produce identical
// decision logs. The worker count itself never changes which faults are
// targeted, in what order, or with what parameters — ordered commits pin
// all of that — so throttling decisions affect wall clock only, which is why
// the worker count stays outside the reproducibility contract.
//
// Decisions escalate and relax stepwise per sample:
//
//	hard pressure:  drop straight to 1 worker; at 1 worker, Level -> Hard
//	soft pressure:  halve the workers toward 1; at 1 worker, Level -> Soft
//	no pressure:    restore Level -> Normal first, then double the workers
//	                back toward MaxWorkers — but only after DwellSamples
//	                consecutive calm samples (see DwellSamples)
//
// The invariant is that effort is shed only at one worker (Level > Normal
// implies Workers() == 1), and concurrency is restored only at full effort.
// With MaxWorkers == 1 and DwellSamples <= 1 each sample sets the level the
// sampled pressure calls for. A nil *Scheduler is inert: LevelNormal, one
// worker.
type Scheduler struct {
	// SoftBytes and HardBytes are the heap thresholds; both zero disables
	// the scheduler (it then always reports LevelNormal and MaxWorkers).
	SoftBytes uint64
	HardBytes uint64

	// MaxWorkers is the configured worker-pool size the scheduler throttles
	// under and restores toward (min 1).
	MaxWorkers int

	// Probe returns the current heap size; defaults to runtime.MemStats.
	Probe func() uint64

	// OnDecision, if non-nil, observes every level or worker-count change.
	OnDecision func(Decision)

	// DwellSamples is the minimum number of consecutive pressure-free
	// samples required before a relaxation step (level restore or worker
	// scale-up). It damps oscillation: when the heap hovers around a
	// threshold, alternating soft/normal samples would otherwise halve and
	// double the pool on every other sample, thrashing worker goroutines
	// and spamming the decision log. With a dwell, any pressure sample
	// resets the calm counter, so flapping pressure sheds monotonically and
	// stays shed until the heap is calm for DwellSamples samples in a row.
	// 0 or 1 relaxes on the first calm sample (the pre-dwell behavior).
	// Shedding is never dwell-gated — pressure always acts immediately.
	DwellSamples int

	level   Level
	workers int
	samples int
	calm    int
}

// Enabled reports whether any threshold is armed.
func (s *Scheduler) Enabled() bool {
	return s != nil && (s.SoftBytes > 0 || s.HardBytes > 0)
}

// Level returns the current load-shedding level without sampling.
func (s *Scheduler) Level() Level {
	if s == nil {
		return LevelNormal
	}
	return s.level
}

// Workers returns the current worker-count target without sampling.
func (s *Scheduler) Workers() int {
	if s == nil {
		return 1
	}
	if s.workers == 0 {
		return s.max()
	}
	return s.workers
}

// SchedulerState is the part of a Scheduler that sampling changes. A run's
// checkpoint carries it, so a resumed run continues the controller where
// the interrupted one stopped instead of starting over at full effort.
type SchedulerState struct {
	Level   Level `json:"level"`
	Workers int   `json:"workers"`
	Samples int   `json:"samples"`
	Calm    int   `json:"calm"`
}

// State returns the scheduler's sampling state.
func (s *Scheduler) State() SchedulerState {
	return SchedulerState{Level: s.Level(), Workers: s.Workers(), Samples: s.Samples(), Calm: s.calm}
}

// Restore continues from a state State returned, possibly in a run over
// another worker count: the worker target is clamped to [1, MaxWorkers]. A
// disabled scheduler ignores it and keeps full effort and all its workers.
func (s *Scheduler) Restore(st SchedulerState) {
	if !s.Enabled() {
		return
	}
	s.level, s.samples, s.calm = st.Level, st.Samples, st.Calm
	s.workers = min(max(st.Workers, 1), s.max())
}

// Samples returns how many times the scheduler has been sampled.
func (s *Scheduler) Samples() int {
	if s == nil {
		return 0
	}
	return s.samples
}

func (s *Scheduler) max() int {
	if s.MaxWorkers < 1 {
		return 1
	}
	return s.MaxWorkers
}

// Sample probes the heap once, applies one escalation or relaxation step,
// and reports the resulting level and worker-count target. pass is the
// 1-based pass number, recorded on any resulting decision. Not safe for
// concurrent use; the driver samples from the commit goroutine only.
func (s *Scheduler) Sample(pass int) (Level, int) {
	if s == nil {
		return LevelNormal, 1
	}
	if s.workers == 0 {
		s.workers = s.max()
	}
	if !s.Enabled() {
		return s.level, s.workers
	}
	s.samples++
	probe := s.Probe
	if probe == nil {
		probe = heapAlloc
	}
	heap := probe()
	pressure := LevelNormal
	switch {
	case s.HardBytes > 0 && heap >= s.HardBytes:
		pressure = LevelHard
	case s.SoftBytes > 0 && heap >= s.SoftBytes:
		pressure = LevelSoft
	}
	if pressure > LevelNormal {
		s.calm = 0
	} else {
		s.calm++
	}
	dwell := s.DwellSamples
	if dwell < 1 {
		dwell = 1
	}

	level, workers := s.level, s.workers
	switch {
	case pressure == LevelHard && workers > 1:
		// Hard pressure is an OOM risk: shed all concurrency at once.
		workers = 1
	case pressure == LevelSoft && workers > 1:
		// Throttle concurrency before shedding effort.
		workers /= 2
		if workers < 1 {
			workers = 1
		}
	case pressure > LevelNormal:
		level = pressure
	case s.calm < dwell:
		// Calm, but not for long enough: hold the shed state so flapping
		// pressure can't thrash the pool up and down every other sample.
	case level > LevelNormal:
		// Pressure relieved: restore effort before concurrency, mirroring
		// the shedding order.
		level = LevelNormal
	case workers < s.max():
		workers *= 2
		if workers > s.max() {
			workers = s.max()
		}
	}

	if level != s.level || workers != s.workers {
		if s.OnDecision != nil {
			s.OnDecision(Decision{
				Sample:      s.samples,
				Pass:        pass,
				Heap:        heap,
				From:        s.level.String(),
				To:          level.String(),
				FromWorkers: s.workers,
				ToWorkers:   workers,
			})
		}
		s.level, s.workers = level, workers
	}
	return s.level, s.workers
}
