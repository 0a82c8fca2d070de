package hybrid

import (
	"context"
	"fmt"
	"time"

	"gahitec/internal/atpg"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// runner holds the mutable state of one test-generation run.
type runner struct {
	ctx    context.Context
	c      *netlist.Circuit
	cfg    Config
	engine *atpg.Engine
	fsim   *faultsim.Simulator
	rng    *runctl.Rand

	res        *Result
	untestable map[fault.Fault]bool
	fp         string // circuit structural fingerprint, cached

	// sched is the run's private memory controller, built from
	// Config.Governor over the run's worker count: it sets the pool's worker
	// cap and the effort level of every committed targeted fault. Without a
	// governor it is disabled and holds the configured worker count.
	sched *supervise.Scheduler

	quar      map[fault.Fault]*Quarantined
	quarOrder []*Quarantined // quarantine entries in capture order
	bundleSeq int            // crash-repro bundles captured so far

	start       time.Time
	prevElapsed time.Duration // accumulated before a resume
	deadline    time.Time     // run context deadline (zero: none)

	// Resume position (zero values for a fresh run).
	preprocessDone bool
	startPass      int
	startFault     int
	resumeTargets  []fault.Fault // restored mid-pass target snapshot
	resumeSeqs     int           // PassStartSeqs of the restored pass

	lastSnap  *Checkpoint // most recent fault-boundary snapshot
	sinceCkpt int
}

// Run executes the configured multi-pass schedule over the fault list and
// returns the per-pass statistics, the test set, and the identified
// untestable faults.
func Run(c *netlist.Circuit, faults []fault.Fault, cfg Config) *Result {
	return RunCtx(context.Background(), c, faults, cfg)
}

// RunCtx is Run under a context: cancellation (or the context deadline)
// interrupts the run at the next fault boundary or mid-search via the
// engine budget, returning the partial Result with Interrupted set. If
// cfg.Checkpoint is set, the last consistent snapshot is emitted before
// returning, so the run can be continued with Resume.
func RunCtx(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config) *Result {
	return newRunner(ctx, c, faults, cfg).run()
}

// Resume continues a run from a Checkpoint: it replays the recorded test
// set through a fresh fault simulator, fast-forwards the random stream to
// the recorded position, and picks the schedule up at the recorded fault
// boundary. With the same seed and schedule, the combined interrupted+
// resumed run produces the same test set and fault accounting as an
// uninterrupted run (as long as per-fault wall-clock limits are generous
// enough not to bind differently across the two executions).
func Resume(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config, ck *Checkpoint) (*Result, error) {
	r := newRunner(ctx, c, faults, cfg)
	if err := r.restore(ck); err != nil {
		return nil, err
	}
	return r.run(), nil
}

func newRunner(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config) *runner {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Checkpoint != nil && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 16
	}
	r := &runner{
		ctx:    ctx,
		c:      c,
		cfg:    cfg,
		engine: atpg.NewEngine(c),
		fsim:   faultsim.New(c, faults),
		rng:    runctl.NewRand(cfg.Seed),
		res: &Result{
			Circuit:     c.Name,
			TotalFaults: len(faults),
		},
		untestable: make(map[fault.Fault]bool),
		fp:         c.Fingerprint(),
		quar:       make(map[fault.Fault]*Quarantined),
	}
	if d, ok := ctx.Deadline(); ok {
		r.deadline = d
	}
	r.sched = cfg.Governor.Scheduler(max(cfg.Workers, 1), func(d supervise.Decision) {
		// Record every decision on the Result and in the telemetry stream.
		r.res.Degradations = append(r.res.Degradations, d)
		attrs := obs.Attrs{
			"sample": float64(d.Sample),
			"heap":   float64(d.Heap),
			"level":  float64(levelOrd(d.To)),
		}
		if d.ToWorkers > 0 {
			attrs["workers"] = float64(d.ToWorkers)
		}
		r.cfg.Obs.Point("governor", "decision", "", d.Pass, attrs)
	})
	r.engine.SetHooks(cfg.Hooks)
	r.fsim.SetHooks(cfg.Hooks)
	r.engine.SetObs(cfg.Obs)
	if cfg.RunID != "" {
		cfg.Obs.SetRunID(cfg.RunID)
	}
	// The fault simulator's recorder is attached in run(), after any
	// restore: a resume replays the checkpointed test set through the
	// simulator, and that replay must not be re-billed — the checkpoint's
	// metrics snapshot already accounts for the original grading.
	return r
}

// faultLabel renders a fault for telemetry events; free when telemetry is
// off.
func (r *runner) faultLabel(f fault.Fault) string {
	if r.cfg.Obs == nil {
		return ""
	}
	return f.String(r.c)
}

// expired reports whether the run context is done or its deadline has
// passed. The deadline is compared against the wall clock directly, matching
// the engines' budgets: a context timer can fire microseconds after the
// deadline itself, and a fault whose search was clipped inside that window
// must count as interrupted, not be recorded as a regular outcome.
func (r *runner) expired() bool {
	return r.ctx.Err() != nil ||
		(!r.deadline.IsZero() && time.Now().After(r.deadline))
}

// restore rebuilds the runner's state from a checkpoint (see Resume).
func (r *runner) restore(ck *Checkpoint) error {
	if err := ck.Validate(r.c, r.cfg, r.res.TotalFaults); err != nil {
		return err
	}
	for _, sf := range ck.Untestable {
		f, err := sf.fault(r.c)
		if err != nil {
			return err
		}
		r.untestable[f] = true
		r.res.Untestable = append(r.res.Untestable, f)
	}
	r.res.Passes = append(r.res.Passes, ck.Passes...)
	r.res.Phases = ck.Phases
	r.res.FirstPanic = ck.FirstPanic
	// A resumed run keeps the identity it was submitted under: the journal's
	// correlation ID wins unless the caller explicitly re-identified the run.
	if r.cfg.RunID == "" && ck.RunID != "" {
		r.cfg.RunID = ck.RunID
		r.cfg.Obs.SetRunID(ck.RunID)
	}
	if ck.Obs != nil {
		if err := r.cfg.Obs.MergeMetrics(ck.Obs); err != nil {
			return fmt.Errorf("hybrid: checkpoint metrics: %w", err)
		}
	}
	r.prevElapsed = time.Duration(ck.ElapsedNS)
	r.preprocessDone = ck.PreprocessDone
	for _, sq := range ck.Quarantine {
		f, err := sq.Fault.fault(r.c)
		if err != nil {
			return err
		}
		reason, err := parseReason(sq.Reason)
		if err != nil {
			return err
		}
		q := r.captureQuarantine(f, reason)
		q.Attempts = sq.Attempts
		q.Resolved = sq.Resolved
		q.Bundle = sq.Bundle
		if q.Bundle != nil {
			r.bundleSeq++ // ordinals continue after the restored captures
		}
	}
	r.res.Degradations = append(r.res.Degradations, ck.Degradations...)
	if ck.Scheduler != nil {
		r.sched.Restore(*ck.Scheduler)
	}

	// Replay the accumulated test set: the fault simulator re-derives the
	// detection state deterministically, and the pass's target snapshot is
	// re-taken at the exact sequence count where the pass originally began.
	for i, ss := range ck.TestSet {
		if i == ck.PassStartSeqs {
			r.resumeTargets = append([]fault.Fault(nil), r.fsim.Remaining()...)
		}
		seq, err := parseSeq(ss, len(r.c.PIs))
		if err != nil {
			return err
		}
		tf, err := ck.Targets[i].fault(r.c)
		if err != nil {
			return err
		}
		r.fsim.ApplySequence(seq)
		r.res.TestSet = append(r.res.TestSet, seq)
		r.res.Targets = append(r.res.Targets, tf)
	}
	if ck.PassStartSeqs == len(ck.TestSet) {
		r.resumeTargets = append([]fault.Fault(nil), r.fsim.Remaining()...)
	}
	r.resumeSeqs = ck.PassStartSeqs
	r.rng.Skip(ck.RNGDraws)
	r.startPass = ck.PassIndex
	r.startFault = ck.FaultIndex
	return nil
}

// run drives the schedule from the runner's (possibly restored) position.
func (r *runner) run() *Result {
	r.start = time.Now()
	r.fsim.SetObs(r.cfg.Obs)
	if r.cfg.PreprocessUntestable && !r.preprocessDone {
		if !r.preprocess() {
			return r.interrupted()
		}
		r.preprocessDone = true
	}
	for pi := r.startPass; pi < len(r.cfg.Passes); pi++ {
		fi0 := 0
		passStartSeqs := len(r.res.TestSet)
		var targets []fault.Fault
		if pi == r.startPass && r.resumeTargets != nil {
			fi0 = r.startFault
			targets = r.resumeTargets
			passStartSeqs = r.resumeSeqs
		} else {
			// Snapshot: faults detected mid-pass are skipped when their
			// turn comes.
			targets = append([]fault.Fault(nil), r.fsim.Remaining()...)
		}
		if !r.runSweep(sweep{
			passNo:  pi + 1,
			pass:    r.cfg.Passes[pi],
			targets: targets,
			fi0:     fi0,
			subSeed: func(_ int, master *runctl.Rand) int64 { return master.Int63() },
			committed: func(fi int, _ bool, _ string) {
				r.noteBoundary(pi, fi+1, passStartSeqs, false)
			},
		}) {
			return r.interrupted()
		}
		remaining := 0
		for _, f := range r.fsim.Remaining() {
			if !r.untestable[f] {
				remaining++
			}
		}
		stats := PassStats{
			Pass:       pi + 1,
			Detected:   r.fsim.NumDetected(),
			Vectors:    r.fsim.NumVectors(),
			Elapsed:    r.elapsed(),
			Untestable: len(r.res.Untestable),
			Aborted:    remaining,
		}
		r.res.Passes = append(r.res.Passes, stats)
		r.cfg.Obs.Point("run", "pass_end", "", pi+1, obs.Attrs{
			"detected":   float64(stats.Detected),
			"vectors":    float64(stats.Vectors),
			"untestable": float64(stats.Untestable),
			"aborted":    float64(stats.Aborted),
		})
		r.noteBoundary(pi+1, 0, len(r.res.TestSet), true)
		if r.cfg.Continue != nil && pi < len(r.cfg.Passes)-1 && !r.cfg.Continue(stats) {
			break
		}
	}
	return r.verifyAndRetry()
}

// verifyAndRetry runs the trust-but-verify tail of a completed schedule:
// audit the detection claims, re-target quarantined faults with escalated
// budgets, and re-audit if the retry phase changed the test set. The tail
// also runs after an early stop via Config.Continue — the test set is final
// either way — but not after an interrupt, where the checkpoint takes over.
func (r *runner) verifyAndRetry() *Result {
	r.snapshotDetections()
	if r.cfg.Audit && !r.runAudit() {
		return r.interrupted()
	}
	if !r.retryQuarantined() {
		r.finalizeQuarantine()
		return r.interrupted()
	}
	if r.res.Retry.Retried > 0 {
		r.snapshotDetections()
		if r.cfg.Audit && !r.runAudit() {
			r.finalizeQuarantine()
			return r.interrupted()
		}
	}
	r.finalizeQuarantine()
	return r.res
}

func (r *runner) elapsed() time.Duration {
	return r.prevElapsed + time.Since(r.start)
}

// interrupted finalizes an interrupted run: the last consistent snapshot is
// emitted so the run can be resumed, and the partial result returned.
func (r *runner) interrupted() *Result {
	r.res.Interrupted = true
	if r.cfg.Checkpoint != nil && r.lastSnap != nil {
		r.cfg.Checkpoint(r.lastSnap)
	}
	return r.res
}

// noteBoundary records a fault-boundary snapshot (position = next fault to
// target) and emits it on the configured cadence; force emits regardless.
func (r *runner) noteBoundary(pi, fi, passStartSeqs int, force bool) {
	if r.cfg.Checkpoint == nil {
		return
	}
	r.lastSnap = r.snapshot(pi, fi, passStartSeqs)
	r.sinceCkpt++
	if force || r.sinceCkpt >= r.cfg.CheckpointEvery {
		r.sinceCkpt = 0
		r.cfg.Checkpoint(r.lastSnap)
	}
}

// snapshot captures the run state at a fault boundary. Sequence and fault
// slices are converted to their serialized forms, so the snapshot shares no
// mutable state with the runner.
func (r *runner) snapshot(pi, fi, passStartSeqs int) *Checkpoint {
	ck := &Checkpoint{
		Version:        CheckpointVersion,
		Circuit:        r.c.Name,
		RunID:          r.cfg.RunID,
		Fingerprint:    r.fp,
		Seed:           r.cfg.Seed,
		TotalFaults:    r.res.TotalFaults,
		PassIndex:      pi,
		FaultIndex:     fi,
		PassStartSeqs:  passStartSeqs,
		PreprocessDone: r.preprocessDone,
		RNGDraws:       r.rng.Draws(),
		ElapsedNS:      int64(r.elapsed()),
		Targets:        saveFaults(r.res.Targets),
		Untestable:     saveFaults(r.res.Untestable),
		Passes:         append([]PassStats(nil), r.res.Passes...),
		Phases:         r.res.Phases,
		FirstPanic:     r.res.FirstPanic,
		Obs:            r.cfg.Obs.MetricsSnapshot(),
	}
	ck.TestSet = make([][]string, len(r.res.TestSet))
	for i, seq := range r.res.TestSet {
		ck.TestSet[i] = saveSeq(seq)
	}
	for _, q := range r.quarOrder {
		ck.Quarantine = append(ck.Quarantine, SavedQuarantine{
			Fault:    saveFault(q.Fault),
			Reason:   q.Reason.String(),
			Attempts: q.Attempts,
			Resolved: q.Resolved,
			Bundle:   q.Bundle,
		})
	}
	ck.Degradations = append([]supervise.Decision(nil), r.res.Degradations...)
	if r.sched.Enabled() {
		st := r.sched.State()
		ck.Scheduler = &st
	}
	return ck
}

// levelOrd maps a governor level name to its ordinal for telemetry attrs.
func levelOrd(s string) int {
	switch s {
	case "soft":
		return 1
	case "hard":
		return 2
	}
	return 0
}
