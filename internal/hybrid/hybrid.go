// Package hybrid implements the paper's test-generation architecture: the
// GA-HITEC hybrid (deterministic fault excitation and propagation, genetic
// state justification in the first passes, deterministic state justification
// afterwards) and the HITEC-style purely deterministic baseline, both driven
// through a multi-pass schedule over the fault list with per-fault time
// limits (paper Table I).
//
// Every candidate test is confirmed by the independent fault simulator
// before it is counted, and detected faults — targeted or incidental — are
// dropped from the fault list.
package hybrid

import (
	"time"

	"gahitec/internal/audit"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/ga"
	"gahitec/internal/logic"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// Method selects the state-justification approach of a pass.
type Method uint8

const (
	// MethodGA justifies the required state with the genetic algorithm,
	// starting from the good machine's current state (GA-HITEC passes 1-2).
	MethodGA Method = iota
	// MethodDet justifies deterministically by reverse time processing from
	// the all-unknown state (GA-HITEC pass 3+, all HITEC passes).
	MethodDet
)

func (m Method) String() string {
	if m == MethodGA {
		return "GA"
	}
	return "deterministic"
}

// Pass configures one pass over the fault list.
type Pass struct {
	Method       Method
	TimePerFault time.Duration

	// GA parameters (MethodGA only).
	Population  int
	Generations int
	SeqLen      int

	// Deterministic search budget for this pass (excitation/propagation
	// always; justification too for MethodDet).
	MaxBacktracks int

	// JustifyAttempts is how many alternative required states (propagation
	// solutions) are tried when justification fails. At least 1.
	JustifyAttempts int
}

// Config configures a full run.
type Config struct {
	Passes []Pass

	// Seed drives every stochastic component (GA populations, X-fill).
	Seed int64

	// RunID is the run correlation ID (obs.NewRunID): stamped on every
	// trace event, recorded in checkpoint journals (so a resumed run keeps
	// its identity) and in crash-repro bundles. Purely telemetry — it never
	// influences the search or any deterministic output. Empty disables
	// stamping; Resume adopts the journal's ID when this is empty.
	RunID string

	// MaxFrames bounds forward propagation and backward justification
	// windows (0: 4x sequential depth).
	MaxFrames int

	// GA knobs for the ablation benchmarks; zero values are the paper's.
	WeightGood  float64
	Selection   ga.Selection
	Crossover   ga.Crossover
	Overlapping bool

	// FaultFreeJustify makes deterministic passes justify only the
	// good-machine state (the weaker fallback); by default deterministic
	// justification is fault-aware (nine-valued, both machines), as in
	// HITEC proper. Exposed for the ablation benchmarks.
	FaultFreeJustify bool

	// Workers sizes the fault pipeline: per-fault searches for up to
	// Workers faults run concurrently and speculatively, with outcomes
	// committed strictly in fault order, so the test set, report and
	// checkpoint journal are the same at every worker count for the same
	// seed (per-fault wall-clock limits permitting, exactly as with
	// Resume). 0 or 1 runs the same pipeline with one worker, which only
	// ever runs the fault next in commit order. The worker count is
	// deliberately outside the reproducibility contract: it may differ
	// between runs, change mid-run under the scheduler, or change across a
	// resume without affecting any output. With a Governor installed,
	// memory pressure throttles the worker count before shedding per-fault
	// search effort (see supervise.Scheduler).
	Workers int

	// PreprocessUntestable runs a cheap untestability screen over the fault
	// list before the first pass (the speedup suggested in the paper's
	// conclusions), removing provably untestable faults so the GA passes do
	// not waste their per-fault budget on them.
	PreprocessUntestable bool

	// Continue, if non-nil, is consulted after each pass with the
	// cumulative statistics; returning false stops the run. This is the
	// paper's "after each pass, the user is prompted as to whether to
	// continue" hook (cmd/atpg -interactive wires it to stdin).
	Continue func(PassStats) bool

	// Checkpoint, if non-nil, receives a resumable snapshot of the run
	// every CheckpointEvery fault boundaries, at every pass boundary, and
	// when the run is interrupted. Snapshots are only ever taken between
	// faults, so resuming one replays the interrupted fault from scratch
	// and the resumed run stays bit-identical to an uninterrupted one
	// (same seed, per-fault time limits permitting). The callback
	// typically persists the snapshot with runctl.SaveJSON.
	Checkpoint func(*Checkpoint)

	// CheckpointEvery is the fault-boundary cadence of the Checkpoint
	// callback (default 16 when Checkpoint is set).
	CheckpointEvery int

	// Hooks, if non-nil, is the runctl fault-injection harness, threaded
	// into the deterministic engine, the GA justifier, and the bit-parallel
	// fault simulator; test machinery.
	Hooks *runctl.Hooks

	// Obs, if non-nil, is the run-telemetry recorder, threaded exactly like
	// Hooks: per-fault spans are emitted at the same boundaries where the
	// Phases counters increment (excitation/propagation, GA and
	// deterministic justification, verification, fault-sim grading, audit
	// replay, quarantine/retry), and its metrics snapshot rides in every
	// checkpoint so a resumed run's telemetry equals an uninterrupted
	// run's. A nil recorder costs one pointer check per site.
	Obs *obs.Recorder

	// Progress, if non-nil, is called at every fault boundary with a live
	// snapshot of the run (cmd/atpg -progress wires it to a rate-limited
	// stderr line). The callback runs on the run's goroutine; keep it cheap.
	Progress func(Progress)

	// Audit independently re-verifies every detection claim at the end of
	// the run: the final test set is replayed on the serial reference
	// simulator (internal/audit), one claimed fault at a time. Claims the
	// reference cannot reproduce are demoted, recorded in Result.Audit, and
	// quarantined for retry.
	Audit bool

	// Retry configures the end-of-run quarantine retry loop: faults that
	// panicked, exhausted their per-fault budget, or failed the audit are
	// re-targeted with budgets escalated per attempt (bounded by
	// Retry.MaxAttempts; bases default to the schedule's last pass). The
	// zero value disables retries.
	Retry runctl.Escalation

	// Watchdog supervises every targeted-fault search: the search runs on a
	// side goroutine fed by progress heartbeats (every engine budget poll and
	// every GA generation beats the pulse), and a search that exceeds the
	// wall-clock ceiling or goes heartbeat-silent is hard-preempted — its
	// context cancelled and, if it still does not return, its goroutine
	// abandoned — so one stuck fault cannot stall the whole run. Preempted
	// faults are counted in Phases.Preempted and quarantined for retry. The
	// zero value disables supervision (searches run inline, as before).
	Watchdog supervise.Watchdog

	// Governor, if non-nil, holds the memory-pressure settings that adapt
	// the run to memory pressure. The run only reads it: it builds one
	// private supervise.Scheduler from it over the run's worker count, so
	// one Governor may serve many runs. The scheduler is sampled once per
	// committed targeted fault, in the schedule passes and the retry tail
	// alike (never from a timer, so a forced pressure schedule reproduces
	// exactly). Pressure first throttles the worker count; at one worker its
	// level shrinks the pass's GA population, generations, sequence length
	// and backtrack allowance toward the schedule's earlier-pass scale.
	// Every decision is recorded in Result.Degradations and passed to the
	// Governor's OnDecision.
	Governor *supervise.Governor

	// Bundle, if non-nil, receives every crash-repro bundle captured during
	// the run — on a recovered panic, a watchdog preemption, budget
	// exhaustion, or an audit demotion. Bundles are self-contained and
	// deterministic; cmd/atpg -repro replays one in isolation. The callback
	// typically persists the bundle with its FileName.
	Bundle func(*supervise.Bundle)

	// InjectSpec is the raw fault-injection spec behind Hooks (as given to
	// runctl.ParseInjectSpec); it is recorded — normalized to fire on every
	// call — in captured bundles so a replay re-arms the same injected
	// failure. Informational; Hooks alone drives the injection.
	InjectSpec string
}

// GAHITECConfig builds the paper's Table I schedule. x is the base sequence
// length (the paper uses a multiple of the sequential depth) and scale
// compresses the per-fault wall-clock limits (the paper's SPARCstation
// seconds become scale-seconds here: scale=0.03 turns 1s/10s/100s into
// 30ms/300ms/3s).
func GAHITECConfig(x int, scale float64) Config {
	if x < 2 {
		x = 2
	}
	lim := func(s float64) time.Duration { return time.Duration(s * scale * float64(time.Second)) }
	return Config{
		Passes: []Pass{
			{Method: MethodGA, TimePerFault: lim(1), Population: 64, Generations: 4, SeqLen: x / 2, MaxBacktracks: 1000, JustifyAttempts: 2},
			{Method: MethodGA, TimePerFault: lim(10), Population: 128, Generations: 8, SeqLen: x, MaxBacktracks: 4000, JustifyAttempts: 3},
			{Method: MethodDet, TimePerFault: lim(100), MaxBacktracks: 20000, JustifyAttempts: 3},
		},
	}
}

// HITECConfig builds the baseline schedule: deterministic justification in
// every pass, time limits 1s, 10s, 100s (scaled) and backtrack limits
// multiplied by ten each pass, as the paper describes.
func HITECConfig(passes int, scale float64) Config {
	if passes <= 0 {
		passes = 3
	}
	cfg := Config{}
	t := 1.0
	bt := 1000
	for i := 0; i < passes; i++ {
		cfg.Passes = append(cfg.Passes, Pass{
			Method:          MethodDet,
			TimePerFault:    time.Duration(t * scale * float64(time.Second)),
			MaxBacktracks:   bt,
			JustifyAttempts: 3,
		})
		t *= 10
		bt *= 10
	}
	return cfg
}

// Progress is a live snapshot of a run at a fault boundary.
type Progress struct {
	Pass        int // 1-based pass number (schedule passes, then retry)
	PassCount   int // scheduled passes
	FaultIndex  int // faults targeted so far within this pass
	PassTargets int // faults in this pass's target snapshot
	Detected    int // faults detected so far (cumulative)
	TotalFaults int
	Vectors     int           // vectors generated so far
	Elapsed     time.Duration // cumulative run wall clock
	// ETA extrapolates the remainder of this pass from the per-fault pace
	// observed since the pass (or the resume point) began. Zero until one
	// fault has completed.
	ETA time.Duration
}

// Coverage returns detected / total.
func (p Progress) Coverage() float64 {
	if p.TotalFaults == 0 {
		return 0
	}
	return float64(p.Detected) / float64(p.TotalFaults)
}

// PassStats reports cumulative results at the end of a pass, matching the
// paper's Det / Vec / Time / Unt columns.
type PassStats struct {
	Pass       int
	Detected   int           // cumulative faults detected
	Vectors    int           // cumulative test vectors generated
	Elapsed    time.Duration // cumulative wall-clock time
	Untestable int           // cumulative untestable faults identified
	Aborted    int           // faults still undecided after this pass
}

// PhaseStats counts the Fig. 1 flow transitions across a run.
type PhaseStats struct {
	Targeted          int // faults targeted by the deterministic engine
	ExciteProp        int // successful excitation+propagation attempts
	GAJustifyCalls    int
	GAJustifyFound    int
	DetJustifyCalls   int
	DetJustifyFound   int
	PropBacktracks    int // alternative propagation solutions requested
	VerifyFailures    int // candidate tests rejected by the fault simulator
	IncidentalDetects int // faults dropped without being targeted
	Preprocessed      int // untestables filtered by the preprocessing screen
	Panics            int // faults aborted by a recovered engine panic
	Preempted         int // faults aborted by a watchdog preemption
}

// add accumulates the per-attempt counter deltas of one supervised search
// into the run totals. Only the counters the search body increments are
// carried through d; driver-side counters (Targeted, IncidentalDetects,
// Preprocessed, Panics, Preempted) stay zero in deltas.
func (p *PhaseStats) add(d PhaseStats) {
	p.Targeted += d.Targeted
	p.ExciteProp += d.ExciteProp
	p.GAJustifyCalls += d.GAJustifyCalls
	p.GAJustifyFound += d.GAJustifyFound
	p.DetJustifyCalls += d.DetJustifyCalls
	p.DetJustifyFound += d.DetJustifyFound
	p.PropBacktracks += d.PropBacktracks
	p.VerifyFailures += d.VerifyFailures
	p.IncidentalDetects += d.IncidentalDetects
	p.Preprocessed += d.Preprocessed
	p.Panics += d.Panics
	p.Preempted += d.Preempted
}

// Result is the outcome of a full run.
type Result struct {
	Circuit     string
	TotalFaults int
	Passes      []PassStats
	Phases      PhaseStats
	TestSet     [][]logic.Vector // one sequence per accepted test
	Targets     []fault.Fault    // per TestSet entry: the fault it targeted
	Untestable  []fault.Fault

	// Interrupted is set when the run's context was cancelled (or its
	// deadline passed) before the schedule completed; the Result then
	// holds the partial state, and the last Checkpoint snapshot can
	// resume it.
	Interrupted bool

	// FirstPanic holds the message and stack of the first engine panic
	// recovered during the run (the fault it hit is counted in
	// Phases.Panics and left undecided rather than killing the run).
	FirstPanic string

	// Detections is the bit-parallel simulator's full detection log (fault
	// plus claimed detecting vector) — the claims the audit verifies. Nil
	// when the run was interrupted before the schedule completed.
	Detections []faultsim.Detection

	// Audit is the independent verification report (Config.Audit). When the
	// retry phase re-targeted faults, this is the post-retry re-audit. Nil
	// when auditing was disabled or the run was interrupted first.
	Audit *audit.Report

	// Quarantine lists every fault quarantined during the run with its
	// final disposition; Retry summarizes the retry phase.
	Quarantine []Quarantined
	Retry      RetryStats

	// Degradations is the run scheduler's decision log: every level or
	// worker-count change, in sampling order. Two runs with the same seed and
	// the same pressure schedule produce identical logs.
	Degradations []supervise.Decision
}

// FaultCoverage returns detected / total.
func (r *Result) FaultCoverage() float64 {
	if r.TotalFaults == 0 || len(r.Passes) == 0 {
		return 0
	}
	last := r.Passes[len(r.Passes)-1]
	return float64(last.Detected) / float64(r.TotalFaults)
}

// Vectors returns the flattened test set.
func (r *Result) Vectors() []logic.Vector {
	var out []logic.Vector
	for _, seq := range r.TestSet {
		out = append(out, seq...)
	}
	return out
}
