package supervise

import (
	"fmt"
	"runtime"
)

// Level is the load-shedding level. Levels only ever tighten the search
// (smaller populations, shorter sequences, fewer optional passes); they never
// change which faults are targeted or in what order, so a degraded run
// differs from a full one only in per-fault effort.
type Level uint8

const (
	// LevelNormal: no pressure; run the configured schedule untouched.
	LevelNormal Level = iota
	// LevelSoft: heap above the soft threshold; shrink GA parameters toward
	// the schedule's earlier-pass values and skip optional work.
	LevelSoft
	// LevelHard: heap above the hard threshold; run at the floor parameters.
	LevelHard
)

func (l Level) String() string {
	switch l {
	case LevelSoft:
		return "soft"
	case LevelHard:
		return "hard"
	default:
		return "normal"
	}
}

// Decision records one level or worker-count change, made at a deterministic
// sampling point. The sequence of decisions is the run's degradation log:
// with the same seed and the same pressure schedule, two runs produce
// identical logs and bit-identical results.
type Decision struct {
	Sample int    `json:"sample"` // 1-based sampling point (fault boundary)
	Pass   int    `json:"pass"`   // 1-based pass at the decision
	Heap   uint64 `json:"heap"`   // sampled heap bytes
	From   string `json:"from"`
	To     string `json:"to"`

	// Worker-count throttling: zero in a one-worker run's log (see
	// Governor.Scheduler), and then omitted from the JSON so version-4
	// checkpoints round-trip unchanged.
	FromWorkers int `json:"from_workers,omitempty"`
	ToWorkers   int `json:"to_workers,omitempty"`
}

func (d Decision) String() string {
	s := fmt.Sprintf("sample %d pass %d: %s -> %s (heap %d bytes)", d.Sample, d.Pass, d.From, d.To, d.Heap)
	if d.FromWorkers != d.ToWorkers {
		s += fmt.Sprintf(", workers %d -> %d", d.FromWorkers, d.ToWorkers)
	}
	return s
}

// Governor holds a run's memory-pressure settings: the heap thresholds, the
// probe and an observer. It keeps no state of its own. Each run builds a
// private Scheduler from it (see Governor.Scheduler), so one Governor may
// serve any number of runs, one after another or at once.
type Governor struct {
	// SoftBytes and HardBytes are the heap thresholds; both zero disables
	// the governor (both must be set for LevelHard to be reachable).
	SoftBytes uint64
	HardBytes uint64

	// Probe returns the current heap size. The default reads
	// runtime.MemStats.HeapAlloc; tests inject a forced pressure schedule.
	Probe func() uint64

	// OnDecision, if non-nil, observes every decision of every run.
	OnDecision func(Decision)
}

// Scheduler builds the private controller of one run over the given number
// of workers. A nil Governor yields a disabled scheduler that holds the
// worker count. Every decision goes to record (if non-nil), then to
// OnDecision.
//
// At one worker the scheduler is the plain level schedule: each sample sets
// the level the sampled pressure calls for, so relief comes on the first
// calm sample, and decisions carry no worker fields. With more workers, two
// calm samples gate every relaxation step, so a heap hovering at a threshold
// cannot thrash the pool every other fault.
func (g *Governor) Scheduler(workers int, record func(Decision)) *Scheduler {
	s := &Scheduler{MaxWorkers: workers}
	if g == nil {
		return s
	}
	s.SoftBytes, s.HardBytes, s.Probe = g.SoftBytes, g.HardBytes, g.Probe
	if workers > 1 {
		s.DwellSamples = 2
	}
	observe := g.OnDecision
	s.OnDecision = func(d Decision) {
		if workers <= 1 {
			d.FromWorkers, d.ToWorkers = 0, 0
		}
		if record != nil {
			record(d)
		}
		if observe != nil {
			observe(d)
		}
	}
	return s
}

// heapAlloc is the default probe: live heap bytes.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
