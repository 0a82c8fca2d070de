package hybrid

import (
	"fmt"

	"gahitec/internal/audit"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// QuarantineReason classifies why a fault was set aside for the end-of-run
// retry phase.
type QuarantineReason uint8

const (
	// ReasonBudget: every pass that targeted the fault ran out of its
	// per-fault budget (wall clock, backtracks, or justification attempts)
	// without reaching a decision.
	ReasonBudget QuarantineReason = iota
	// ReasonPanic: an engine panic was recovered while targeting the fault.
	ReasonPanic
	// ReasonAudit: the independent audit demoted the fault's detection claim
	// — the serial reference simulator could not reproduce it.
	ReasonAudit
	// ReasonPreempt: the watchdog hard-preempted the fault's search (ceiling
	// or stall) before it reached a decision.
	ReasonPreempt
)

// NumQuarantineReasons is the number of distinct reasons, for per-reason
// accounting arrays.
const NumQuarantineReasons = 4

func (q QuarantineReason) String() string {
	switch q {
	case ReasonPanic:
		return "panic"
	case ReasonAudit:
		return "audit"
	case ReasonPreempt:
		return "preempt"
	default:
		return "budget"
	}
}

func parseReason(s string) (QuarantineReason, error) {
	switch s {
	case "budget":
		return ReasonBudget, nil
	case "panic":
		return ReasonPanic, nil
	case "audit":
		return ReasonAudit, nil
	case "preempt":
		return ReasonPreempt, nil
	}
	return 0, fmt.Errorf("hybrid: unknown quarantine reason %q", s)
}

// Quarantined is one fault held for retry, with its final disposition.
type Quarantined struct {
	Fault    fault.Fault
	Reason   QuarantineReason // why it is held (audit overrides budget/panic)
	Attempts int              // retry attempts spent on it
	// Resolved reports that the fault was decided after quarantine: detected
	// (for audit demotions, re-detected with a serially confirmed test) or
	// proven untestable.
	Resolved bool

	// Bundle is the crash-repro bundle captured when the fault was
	// quarantined: the deterministic description of the failing attempt.
	// Retries replay from it (its forked sub-seed) instead of re-deriving
	// state, and it rides in the checkpoint so a resumed run retries
	// identically.
	Bundle *supervise.Bundle
}

// retrySeed is the random stream of the attempt-th retry: the quarantined
// attempt's own forked sub-seed offset per attempt, so retries replay from
// the bundle deterministically without touching the master stream.
func (q *Quarantined) retrySeed(attempt int) int64 {
	if q.Bundle != nil {
		return q.Bundle.SubSeed + int64(attempt)
	}
	// No bundle (quarantine restored from a degenerate journal): derive a
	// deterministic seed from the fault site instead.
	return int64(q.Fault.Node)<<16 + int64(q.Fault.Pin)<<2 + int64(attempt)
}

// RetryStats summarizes the quarantine-and-retry phase of a run.
type RetryStats struct {
	Quarantined int // faults ever quarantined
	Retried     int // individual retry attempts executed
	Recovered   int // quarantined faults resolved by a retry attempt
	Exhausted   int // faults still unresolved when the retry budget ran out

	// Highest escalated per-fault budgets actually used (zero when no retry
	// ran).
	EscalatedTime       int64 // nanoseconds
	EscalatedBacktracks int
}

// quarantineFault records f for end-of-run retry. Re-quarantining keeps the
// original reason, except that an audit demotion overrides a budget or panic
// reason: a fault that aborted in an early pass and was later spuriously
// "detected" is no longer in the simulator's fault list, and only the audit
// reason routes it back into the retry queue.
func (r *runner) quarantineFault(f fault.Fault, reason QuarantineReason) *Quarantined {
	if _, seen := r.quar[f]; !seen {
		r.cfg.Obs.Counter("quarantine."+reason.String(), 1)
		r.cfg.Obs.Point("quarantine", "captured", r.faultLabel(f), 0, obs.Attrs{
			"reason": float64(reason),
		})
	}
	return r.captureQuarantine(f, reason)
}

// captureQuarantine is quarantineFault without the telemetry — the restore
// path uses it directly, because the checkpoint's metrics snapshot already
// counts the restored captures.
func (r *runner) captureQuarantine(f fault.Fault, reason QuarantineReason) *Quarantined {
	if q, ok := r.quar[f]; ok {
		if reason == ReasonAudit {
			q.Reason = ReasonAudit
		}
		return q
	}
	q := &Quarantined{Fault: f, Reason: reason}
	r.quar[f] = q
	r.quarOrder = append(r.quarOrder, q)
	return q
}

// runAudit replays every detection claim on the serial reference simulator
// and quarantines demoted claims for retry. It returns false when the run
// context was cancelled mid-audit.
func (r *runner) runAudit() bool {
	claims := make([]audit.Claim, 0, len(r.res.Detections))
	for _, d := range r.res.Detections {
		claims = append(claims, audit.Claim{Fault: d.Fault, Vector: d.Vector})
	}
	rep, err := audit.VerifyObs(r.ctx, r.c, r.res.TestSet, claims, r.cfg.Obs)
	if err != nil {
		return false
	}
	r.res.Audit = rep
	for _, rec := range rep.Records {
		if rec.Verdict != audit.Unverified {
			continue
		}
		q := r.quarantineFault(rec.Fault, ReasonAudit)
		r.captureAuditBundle(q, rec)
	}
	return true
}

// captureAuditBundle serializes the miscompare as a crash-repro bundle: the
// full test set plus the demoted claim, replayable on the serial reference
// in isolation. It replaces any earlier (budget/panic/preempt) bundle on the
// entry — the miscompare artifact supersedes it — but not a previous audit
// bundle for the same fault.
func (r *runner) captureAuditBundle(q *Quarantined, rec audit.Record) {
	if q.Bundle != nil && q.Bundle.Kind == supervise.KindAuditMiscompare {
		return
	}
	b := r.newBundle(supervise.KindAuditMiscompare, "miscompare", rec.Fault)
	b.SubSeed = r.rng.Int63() // seeds the retry stream; the replay itself is data-driven
	b.ClaimVector = rec.Claimed
	b.TestSet = make([][]string, len(r.res.TestSet))
	for i, seq := range r.res.TestSet {
		b.TestSet[i] = saveSeq(seq)
	}
	q.Bundle = b
	r.emitBundle(b)
}

// retryQueue returns the quarantined faults still worth retrying: not yet
// resolved, not proven untestable, and (for budget/panic quarantines) still
// undetected. Audit demotions are always retried — the bit-parallel
// simulator believes them detected, so only an accepted (serially confirmed)
// new test resolves them.
func (r *runner) retryQueue() []*Quarantined {
	remaining := make(map[fault.Fault]bool, len(r.fsim.Remaining()))
	for _, f := range r.fsim.Remaining() {
		remaining[f] = true
	}
	var out []*Quarantined
	for _, q := range r.quarOrder {
		if q.Resolved || r.untestable[q.Fault] {
			continue
		}
		if q.Reason == ReasonAudit || remaining[q.Fault] {
			out = append(out, q)
		}
	}
	return out
}

// retryQuarantined re-targets unresolved quarantined faults with per-attempt
// escalated budgets (cfg.Retry). Base budgets default to the schedule's last
// pass, so even the first retry runs with more room than the pass that gave
// up. Each attempt is one sweep of the fault loop over the retry queue.
// Returns false when the run context expired mid-retry; the retry phase is
// deliberately not checkpointed — a resumed run redoes it from the saved
// quarantine list.
func (r *runner) retryQuarantined() bool {
	esc := r.cfg.Retry
	if esc.MaxAttempts <= 0 || len(r.quarOrder) == 0 {
		return true
	}
	var last Pass
	if n := len(r.cfg.Passes); n > 0 {
		last = r.cfg.Passes[n-1]
	}
	if esc.BaseTime == 0 {
		esc.BaseTime = last.TimePerFault
	}
	if esc.BaseBacktracks == 0 {
		esc.BaseBacktracks = last.MaxBacktracks
	}
	for attempt := 1; attempt <= esc.MaxAttempts; attempt++ {
		queue := r.retryQueue()
		if len(queue) == 0 {
			break
		}
		pass := Pass{
			Method:          MethodDet,
			TimePerFault:    esc.TimeAt(attempt),
			MaxBacktracks:   esc.BacktracksAt(attempt),
			JustifyAttempts: last.JustifyAttempts,
		}
		targets := make([]fault.Fault, len(queue))
		for i, q := range queue {
			targets[i] = q.Fault
		}
		if !r.runSweep(sweep{
			passNo:  len(r.cfg.Passes) + 1,
			pass:    pass,
			targets: targets,
			// Retries replay from the quarantine bundle: the attempt's own
			// forked sub-seed (offset per attempt) instead of a master draw,
			// so the retry phase is deterministic given the quarantine list
			// alone — exactly what a resumed run restores.
			subSeed: func(fi int, _ *runctl.Rand) int64 { return queue[fi].retrySeed(attempt) },
			committed: func(fi int, accepted bool, outcome string) {
				q := queue[fi]
				q.Attempts++
				r.res.Retry.Retried++
				r.res.Retry.EscalatedTime = int64(pass.TimePerFault)
				r.res.Retry.EscalatedBacktracks = pass.MaxBacktracks
				if accepted || outcome == "untestable" {
					q.Resolved = true
				}
			},
		}) {
			return false
		}
	}
	if r.res.Retry.Retried > 0 {
		// The retry phase reports as one extra row after the schedule.
		remaining := 0
		for _, f := range r.fsim.Remaining() {
			if !r.untestable[f] {
				remaining++
			}
		}
		r.res.Passes = append(r.res.Passes, PassStats{
			Pass:       len(r.cfg.Passes) + 1,
			Detected:   r.fsim.NumDetected(),
			Vectors:    r.fsim.NumVectors(),
			Elapsed:    r.elapsed(),
			Untestable: len(r.res.Untestable),
			Aborted:    remaining,
		})
	}
	return true
}

// finalizeQuarantine computes each quarantine entry's final resolution and
// publishes the list and the retry counters on the Result. Budget and panic
// quarantines resolve when the fault ends up detected or proven untestable
// (by a retry or incidentally); audit demotions only through an explicit
// re-confirmation, recorded by the retry loop.
func (r *runner) finalizeQuarantine() {
	if len(r.quarOrder) == 0 {
		return
	}
	remaining := make(map[fault.Fault]bool, len(r.fsim.Remaining()))
	for _, f := range r.fsim.Remaining() {
		remaining[f] = true
	}
	r.res.Retry.Quarantined = len(r.quarOrder)
	for _, q := range r.quarOrder {
		if r.untestable[q.Fault] {
			q.Resolved = true
		} else if q.Reason != ReasonAudit && !remaining[q.Fault] {
			q.Resolved = true
		}
		switch {
		case q.Resolved && q.Attempts > 0:
			r.res.Retry.Recovered++
		case !q.Resolved:
			r.res.Retry.Exhausted++
		}
		r.res.Quarantine = append(r.res.Quarantine, *q)
	}
}

// snapshotDetections copies the fault simulator's detection log into the
// Result — the claims the audit verifies.
func (r *runner) snapshotDetections() {
	r.res.Detections = append([]faultsim.Detection(nil), r.fsim.Detections()...)
}
