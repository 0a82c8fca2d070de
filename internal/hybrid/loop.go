package hybrid

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"gahitec/internal/atpg"
	"gahitec/internal/fault"
	"gahitec/internal/obs"
	"gahitec/internal/parallel"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// This file is the fault loop: the Fig. 1 flow applied to a list of target
// faults through the speculative ordered-commit pool (internal/parallel).
// Schedule passes, the retry tail and the untestability screen all run
// through it, at every worker count; a serial run is the pool with one
// worker, which only ever runs the slot at its commit cursor. Up to
// Config.Workers per-fault searches execute concurrently, each under its own
// watchdog supervision, against inputs speculated from the committed run
// state: the predicted sub-seed (a shadow copy of the master random stream),
// the committed good-machine state, and the scheduler's current effort
// level. Outcomes commit strictly in target order on the coordinator
// goroutine — detections, incidental-detection grading, quarantine entries,
// crash-repro bundles, telemetry and checkpoint boundaries — and any commit
// that changes state later speculations read (an accepted test, an effort
// change) invalidates the outstanding speculative work. The worker count
// therefore only changes wall-clock time, never output (see DESIGN.md,
// "Ordered-commit determinism").

// workerExec is what one speculative search execution returns: the body's
// in-place result, the watchdog's verdict, and the fault's target span,
// opened when the search started so that it covers the search.
type workerExec struct {
	att *attemptResult
	v   supervise.Verdict
	sp  obs.Span
}

// sweep is one trip of the fault loop over a target list: a schedule pass,
// or one attempt of the retry tail.
type sweep struct {
	passNo  int  // 1-based; the retry tail reports as len(Config.Passes)+1
	pass    Pass // scheduled parameters, before any degradation
	targets []fault.Fault
	fi0     int // first slot to target: a resumed pass restarts mid-list

	// subSeed returns slot fi's sub-seed. A schedule pass draws it from
	// master: the committed master stream at commit, its shadow when
	// speculating. A retry derives it from the fault's quarantine bundle.
	subSeed func(fi int, master *runctl.Rand) int64

	// committed runs on the coordinator after slot fi's outcome is applied:
	// a pass records its checkpoint boundary there, a retry charges the
	// attempt to its quarantine entry.
	committed func(fi int, accepted bool, outcome string)
}

// runSweep targets every slot of s from s.fi0 on, skipping faults proven
// untestable and faults detected since the sweep began. It returns false
// when the run context was cancelled.
func (r *runner) runSweep(s sweep) bool {
	// Live faults: the undetected ones, plus audit demotions, which the
	// bit-parallel simulator counts as detected although only a confirmed
	// new test resolves them. An accepted test's detections drop out.
	live := make(map[fault.Fault]bool, len(r.fsim.Remaining()))
	for _, f := range r.fsim.Remaining() {
		live[f] = true
	}
	for _, q := range r.quarOrder {
		if q.Reason == ReasonAudit {
			live[q.Fault] = true
		}
	}
	passT0 := time.Now()
	// Announce the position up front (ETA zero: the "--:--" sentinel until
	// one fault commits); a search in flight can take a while.
	r.reportProgress(s.passNo, s.fi0, s.fi0, len(s.targets), passT0)

	// shadow tracks the master random stream speculatively: re-synced to the
	// committed position at every epoch, advanced by every speculated
	// targeted fault exactly as its commit will advance the master.
	shadow := runctl.NewRand(r.cfg.Seed)

	return parallel.Run(r.ctx, parallel.Config[attempt, workerExec]{
		Items:   len(s.targets) - s.fi0,
		Workers: r.sched.Workers(),
		Reset: func() {
			if shadow.Draws() != r.rng.Draws() {
				shadow.Seed(r.cfg.Seed)
				shadow.Skip(r.rng.Draws())
			}
		},
		Spec: func(i int) (attempt, bool) {
			fi := s.fi0 + i
			f := s.targets[fi]
			if !live[f] || r.untestable[f] {
				return attempt{}, false
			}
			at := r.newAttempt(f, effectivePass(s.pass, r.sched.Level()), s.passNo, s.subSeed(fi, shadow))
			// The search body runs against a forked child recorder; its
			// events and counters are adopted into the run recorder only if
			// this speculation commits, so discarded attempts leave no trace.
			at.rec = r.cfg.Obs.Fork()
			at.engine = r.engine.WithObs(at.rec)
			return at, true
		},
		Exec: func(ctx context.Context, at attempt) workerExec {
			sp := r.cfg.Obs.StartSpan("target", at.label, at.passNo)
			att, v := r.runAttempt(ctx, at)
			return workerExec{att: att, v: v, sp: sp}
		},
		Commit: func(i int, at attempt, res workerExec) parallel.Directive {
			fi := s.fi0 + i
			if r.expired() {
				return parallel.Directive{Verdict: parallel.Stop}
			}
			subSeed := s.subSeed(fi, r.rng)
			lvl, workers := r.sched.Sample(s.passNo)
			eff := effectivePass(s.pass, lvl)
			att, v, sp := res.att, res.v, res.sp
			effortChanged := eff != at.pass
			if subSeed != at.subSeed || effortChanged {
				// The speculation ran against the wrong sub-seed or effort
				// level (a scheduler decision landed at this very fault).
				// Commit-order induction says the state inputs themselves are
				// right, but re-run inline with the committed parameters
				// rather than commit a wrong-effort result. The stale child
				// recorder is simply dropped.
				at = r.newAttempt(at.f, eff, s.passNo, subSeed)
				sp = r.cfg.Obs.StartSpan("target", at.label, s.passNo)
				att, v = r.runAttempt(r.ctx, at)
			} else {
				// Merge the committed attempt's telemetry into the run
				// recorder, in commit order. Fork and parent share a metrics
				// schema, so adoption cannot fail.
				_ = r.cfg.Obs.Adopt(at.rec)
			}
			r.res.Phases.Targeted++
			newly, accepted, outcome := r.applyAttempt(at, att, v)
			if r.expired() {
				// The run context died while this fault's search was in
				// flight, possibly clipping it mid-search. Its outcome is not
				// what an uninterrupted run would have computed, so it must
				// not reach the checkpoint stream: the previous boundary's
				// snapshot stands as the last consistent state.
				sp.End("interrupted", nil)
				return parallel.Directive{Verdict: parallel.Stop}
			}
			if accepted {
				for _, g := range newly {
					delete(live, g)
				}
				sp.End(outcome, obs.Attrs{"newly": float64(len(newly))})
			} else {
				sp.End(outcome, nil)
			}
			s.committed(fi, accepted, outcome)
			r.reportProgress(s.passNo, s.fi0, fi+1, len(s.targets), passT0)
			d := parallel.Directive{Workers: workers}
			if accepted || effortChanged {
				// An accepted test changed the good-machine state, the
				// detection set and the master-stream pace; an effort change
				// alters later attempts' parameters. Either way the
				// outstanding speculations were derived from a stale world.
				d.Verdict = parallel.Invalidate
			}
			return d
		},
	})
}

// reportProgress emits the per-fault progress callback. fi is the number of
// slots committed so far (the index of the next one), counting skipped
// slots; the ETA extrapolates the per-slot pace since fi0 was reached.
func (r *runner) reportProgress(passNo, fi0, fi, passTargets int, passT0 time.Time) {
	if r.cfg.Progress == nil {
		return
	}
	var eta time.Duration
	if done := fi - fi0; done > 0 {
		// Dividing first keeps the arithmetic far from int64 overflow, and a
		// clock step backwards is clamped rather than reported as a negative
		// countdown.
		eta = time.Since(passT0) / time.Duration(done) * time.Duration(passTargets-fi)
		if eta < 0 {
			eta = 0
		}
	}
	r.cfg.Progress(Progress{
		Pass:        passNo,
		PassCount:   len(r.cfg.Passes),
		FaultIndex:  fi,
		PassTargets: passTargets,
		Detected:    r.fsim.NumDetected(),
		TotalFaults: r.res.TotalFaults,
		Vectors:     r.fsim.NumVectors(),
		Elapsed:     r.elapsed(),
		ETA:         eta,
	})
}

// screenOutcome is one preprocessing probe's result: the engine status, or a
// recovered panic.
type screenOutcome struct {
	status   atpg.Status
	panicked bool
	panicMsg string
}

// screenSpec is one preprocessing probe's input: the fault and the forked
// recorder/engine pair charging it.
type screenSpec struct {
	f      fault.Fault
	rec    *obs.Recorder
	engine *atpg.Engine
}

// preprocess runs a cheap exhaustive screen over the fault list and marks
// faults whose excitation or propagation provably cannot succeed (the
// "filter untestable faults in advance" speedup from the paper's
// conclusions). The screen uses a two-frame window — untestability proofs
// are frame-independent (exhaustion without a fault effect crossing the
// window boundary) — and a small backtrack budget so screening stays cheap.
// The probes are mutually independent, so no invalidation ever happens: it
// is a plain ordered fan-out through the pool, and untestability marks,
// panic accounting and engine telemetry commit in fault-list order at any
// worker count. The run context bounds the whole screen. It returns false
// when interrupted.
func (r *runner) preprocess() bool {
	sp := r.cfg.Obs.StartSpan("preprocess", "", 0)
	faults := append([]fault.Fault(nil), r.fsim.Remaining()...)
	ok := parallel.Run(r.ctx, parallel.Config[screenSpec, screenOutcome]{
		Items:   len(faults),
		Workers: r.sched.Workers(),
		Spec: func(i int) (screenSpec, bool) {
			rec := r.cfg.Obs.Fork()
			return screenSpec{f: faults[i], rec: rec, engine: r.engine.WithObs(rec)}, true
		},
		Exec: func(ctx context.Context, s screenSpec) (out screenOutcome) {
			defer func() {
				if p := recover(); p != nil {
					out.panicked = true
					out.panicMsg = fmt.Sprintf("%v\n\n%s", p, debug.Stack())
				}
			}()
			res := s.engine.GenerateCtx(ctx, s.f, atpg.Limits{MaxFrames: 2, MaxBacktracks: 256})
			out.status = res.Status
			return out
		},
		Commit: func(i int, s screenSpec, out screenOutcome) parallel.Directive {
			if r.expired() {
				return parallel.Directive{Verdict: parallel.Stop}
			}
			_ = r.cfg.Obs.Adopt(s.rec)
			switch {
			case out.panicked:
				r.res.Phases.Panics++
				if r.res.FirstPanic == "" {
					r.res.FirstPanic = out.panicMsg
				}
			case out.status == atpg.Untestable:
				r.untestable[s.f] = true
				r.res.Untestable = append(r.res.Untestable, s.f)
				r.res.Phases.Preprocessed++
			}
			return parallel.Directive{}
		},
	}) // no Reset: probes read no committed state
	if !ok {
		sp.End("interrupted", nil)
		return false
	}
	sp.End("done", obs.Attrs{
		"screened":   float64(len(faults)),
		"untestable": float64(r.res.Phases.Preprocessed),
	})
	return true
}
