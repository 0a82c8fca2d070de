package hybrid

import (
	"context"
	"fmt"
	"time"

	"gahitec/internal/atpg"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/justify"
	"gahitec/internal/logic"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// attempt is the input of one supervised fault attempt: everything the
// search body needs, captured before the body starts, so a body the
// watchdog abandons shares no mutable run state with the rest of the run.
type attempt struct {
	f      fault.Fault
	pass   Pass // effective (possibly governor-degraded) parameters
	passNo int

	// subSeed is the attempt's own random stream, forked from the master
	// stream with a single draw. The body never touches the master stream,
	// so an abandoned body cannot advance it and the run stays resumable.
	subSeed int64

	// startGood is a private copy of the good machine's state when the
	// attempt began.
	startGood logic.Vector

	// label is the fault's telemetry label; rec is the recorder the search
	// body charges and engine the ATPG engine bound to it. Serially these
	// are the run recorder and engine; a speculative parallel attempt gets
	// a forked child recorder instead, so an attempt that is invalidated
	// and discarded leaves no trace in the run's metrics (the committed
	// attempt's child is adopted into the parent at commit).
	label  string
	rec    *obs.Recorder
	engine *atpg.Engine
}

// attemptResult is what the search body produces, mutated in place so the
// counter deltas survive a recovered panic. The driver reads it only when
// the body is known to have returned (never after an abandonment).
type attemptResult struct {
	phases     PhaseStats
	untestable bool
	seq        []logic.Vector
	accepted   bool
}

// newAttempt captures one fault attempt's inputs from the committed run
// state, bound to the run's own recorder and engine (the inline shape; a
// speculative attempt substitutes a forked recorder).
func (r *runner) newAttempt(f fault.Fault, eff Pass, passNo int, subSeed int64) attempt {
	return attempt{
		f:         f,
		pass:      eff,
		passNo:    passNo,
		subSeed:   subSeed,
		startGood: r.fsim.GoodState(),
		label:     r.faultLabel(f),
		rec:       r.cfg.Obs,
		engine:    r.engine,
	}
}

// runAttempt executes one attempt's search body under the configured
// watchdog, blocking the calling goroutine until the body returns or is
// abandoned.
func (r *runner) runAttempt(ctx context.Context, at attempt) (*attemptResult, supervise.Verdict) {
	att := &attemptResult{}
	verdict := r.cfg.Watchdog.Do(ctx, func(ctx context.Context, pulse *runctl.Pulse) {
		r.searchFault(ctx, pulse, att, at)
	})
	return att, verdict
}

// effectivePass is the pass the attempt actually runs: the scheduled
// parameters degraded to the sampled load-shedding level.
func effectivePass(pass Pass, lvl supervise.Level) Pass {
	eff := degradePass(pass, lvl)
	if eff.JustifyAttempts < 1 {
		eff.JustifyAttempts = 1
	}
	return eff
}

// degradePass maps a governor level to tighter per-fault search parameters:
// Soft halves the GA population, generation count, sequence length and the
// backtrack allowance; Hard quarters them and drops the optional extra
// propagation solutions. Floors keep the search meaningful, zero fields
// (defaults resolved downstream) are left alone, and degradation never
// relaxes a parameter — so a degraded run differs from a full one only in
// per-fault effort, deterministically.
func degradePass(p Pass, lvl supervise.Level) Pass {
	div := 0
	switch lvl {
	case supervise.LevelSoft:
		div = 2
	case supervise.LevelHard:
		div = 4
	default:
		return p
	}
	shrink := func(v, floor int) int {
		if v <= 0 {
			return v
		}
		s := v / div
		if s < floor {
			s = floor
		}
		if s > v {
			s = v
		}
		return s
	}
	p.Population = shrink(p.Population, 16)
	p.Generations = shrink(p.Generations, 1)
	p.SeqLen = shrink(p.SeqLen, 2)
	p.MaxBacktracks = shrink(p.MaxBacktracks, 128)
	if lvl == supervise.LevelHard && p.JustifyAttempts > 1 {
		p.JustifyAttempts = 1
	}
	return p
}

// attemptOutcome labels how a finished (or abandoned) attempt ended: "panic",
// "preempt_ceiling", "preempt_stall", "detected", "untestable" or
// "undecided". It is the fault's target-span outcome, and a bundle's replay
// must reproduce it.
func attemptOutcome(att *attemptResult, v supervise.Verdict) string {
	switch {
	case v.Outcome == supervise.Panicked:
		return "panic"
	case v.Outcome.Preempted():
		return v.Outcome.String()
	case att.accepted:
		return "detected"
	case att.untestable:
		return "untestable"
	}
	return "undecided"
}

// applyAttempt merges a finished (or abandoned) attempt into the run state
// on the run goroutine: counters, untestability proofs, the accepted test,
// quarantine entries and crash-repro bundles. It returns the newly detected
// faults (for an accepted test), whether a test was accepted, and the
// attempt's outcome label.
func (r *runner) applyAttempt(at attempt, att *attemptResult, v supervise.Verdict) (newly []fault.Fault, accepted bool, outcome string) {
	if !v.Abandoned {
		// The body has returned; its in-place deltas are complete (panic
		// included — increments made before the unwind stick, exactly as
		// the pre-supervision inline flow counted them). An abandoned
		// body's goroutine may still be writing, so its deltas are lost.
		r.res.Phases.add(att.phases)
	}
	outcome = attemptOutcome(att, v)
	switch outcome {
	case "panic":
		r.res.Phases.Panics++
		if r.res.FirstPanic == "" {
			r.res.FirstPanic = fmt.Sprintf("%s\n\n%s", v.PanicValue, v.PanicStack)
		}
		q := r.quarantineFault(at.f, ReasonPanic)
		r.captureBundle(q, at, supervise.KindPanic, outcome, v)
	case "preempt_ceiling", "preempt_stall":
		r.res.Phases.Preempted++
		q := r.quarantineFault(at.f, ReasonPreempt)
		r.captureBundle(q, at, supervise.KindPreempt, outcome, v)
		r.cfg.Obs.Point("watchdog", "preempt", r.faultLabel(at.f), at.passNo, obs.Attrs{
			"beats":      float64(v.Beats),
			"abandoned":  boolAttr(v.Abandoned),
			"elapsed_us": float64(v.Elapsed.Microseconds()),
		})
	case "detected":
		r.res.TestSet = append(r.res.TestSet, att.seq)
		r.res.Targets = append(r.res.Targets, at.f)
		newly = r.fsim.ApplySequence(att.seq)
		// Incidental = detected without being this attempt's target. When
		// an audit-demoted fault is re-targeted it is no longer in the
		// simulator's fault list, so the target may be absent from newly.
		incidental := 0
		for _, g := range newly {
			if g != at.f {
				incidental++
			}
		}
		r.res.Phases.IncidentalDetects += incidental
		if incidental > 0 {
			r.cfg.Obs.Counter("incidental_detects", int64(incidental))
		}
		return newly, true, outcome
	case "untestable":
		if !r.untestable[at.f] {
			r.untestable[at.f] = true
			r.res.Untestable = append(r.res.Untestable, at.f)
		}
	default:
		// Undecided: the budget expired without a test or an untestability
		// proof. Quarantine for the end-of-run retry.
		q := r.quarantineFault(at.f, ReasonBudget)
		r.captureBundle(q, at, supervise.KindBudget, outcome, v)
	}
	return nil, false, outcome
}

func boolAttr(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// searchFault is the supervised search body: the Fig. 1 flow for one fault.
// It runs — possibly on a watchdog goroutine the run may abandon — against
// only the state captured in the attempt, its own forked random stream, the
// in-place attemptResult, and the shared engines, which are safe for the
// purpose (read-only precomputation; hooks and the telemetry recorder carry
// their own locks; search frames and simulators are per call).
func (r *runner) searchFault(ctx context.Context, pulse *runctl.Pulse, att *attemptResult, at attempt) {
	rng := runctl.NewRand(at.subSeed)
	fctx := ctx
	if at.pass.TimePerFault > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithDeadline(ctx, time.Now().Add(at.pass.TimePerFault))
		defer cancel()
	}
	lim := atpg.Limits{
		MaxFrames:     r.cfg.MaxFrames,
		MaxBacktracks: at.pass.MaxBacktracks,
		Pulse:         pulse,
	}

	for n := 0; n < at.pass.JustifyAttempts; n++ {
		if n > 0 {
			att.phases.PropBacktracks++
		}
		epsp := at.rec.StartSpan("excite_prop", at.label, at.passNo)
		gen := at.engine.GenerateNthCtx(fctx, at.f, lim, n)
		switch gen.Status {
		case atpg.Untestable:
			epsp.End("untestable", nil)
			if n == 0 {
				att.untestable = true
			}
			return
		case atpg.Aborted:
			epsp.End("aborted", nil)
			return
		}
		att.phases.ExciteProp++
		epsp.End("success", obs.Attrs{
			"attempt":    float64(n),
			"backtracks": float64(gen.Backtracks),
			"frames":     float64(gen.Frames),
		})

		seq, ok := r.justifyAndBuild(fctx, pulse, at, att, gen, rng)
		if !ok {
			if fctx.Err() != nil {
				return
			}
			continue // backtrack into propagation: try the next solution
		}

		// Confirm with the independent fault simulator before counting.
		vsp := at.rec.StartSpan("verify", at.label, at.passNo)
		det, _ := faultsim.DetectsFrom(r.c, at.f, at.startGood, nil, seq)
		if !det {
			vsp.End("reject", obs.Attrs{"seq_len": float64(len(seq))})
			att.phases.VerifyFailures++
			if fctx.Err() != nil {
				return
			}
			continue
		}
		vsp.End("accept", obs.Attrs{"seq_len": float64(len(seq))})
		at.rec.Observe("seq_len", float64(len(seq)))
		att.seq, att.accepted = seq, true
		return
	}
}

// justifyAndBuild runs state justification for one propagation solution and,
// on success, assembles the full candidate test sequence (justification
// prefix + excitation/propagation vectors, X positions filled randomly from
// the attempt's forked stream).
func (r *runner) justifyAndBuild(ctx context.Context, pulse *runctl.Pulse, at attempt, att *attemptResult, gen atpg.Result, rng *runctl.Rand) ([]logic.Vector, bool) {
	f := at.f
	var prefix []logic.Vector
	switch at.pass.Method {
	case MethodGA:
		att.phases.GAJustifyCalls++
		sp := at.rec.StartSpan("ga_justify", at.label, at.passNo)
		req := justify.Request{
			TargetGood:   gen.RequiredGood,
			TargetFaulty: gen.RequiredFaulty,
			Fault:        &f,
			StartGood:    at.startGood,
		}
		jres := justify.GACtx(ctx, r.c, req, justify.Options{
			Population:  at.pass.Population,
			Generations: at.pass.Generations,
			SeqLen:      at.pass.SeqLen,
			WeightGood:  r.cfg.WeightGood,
			Seed:        rng.Int63(),
			Selection:   r.cfg.Selection,
			Crossover:   r.cfg.Crossover,
			Overlapping: r.cfg.Overlapping,
			Hooks:       r.cfg.Hooks,
			Pulse:       pulse,
			Obs:         at.rec,
			ObsFault:    at.label,
			ObsPass:     at.passNo,
		})
		if !jres.Found {
			sp.End("miss", obs.Attrs{
				"generations": float64(jres.Generations),
				"evaluations": float64(jres.Evaluations),
			})
			return nil, false
		}
		att.phases.GAJustifyFound++
		sp.End("found", obs.Attrs{
			"generations": float64(jres.Generations),
			"evaluations": float64(jres.Evaluations),
			"seq_len":     float64(len(jres.Sequence)),
		})
		prefix = jres.Sequence
	case MethodDet:
		att.phases.DetJustifyCalls++
		sp := at.rec.StartSpan("det_justify", at.label, at.passNo)
		lim := atpg.Limits{
			MaxFrames:     r.cfg.MaxFrames,
			MaxBacktracks: at.pass.MaxBacktracks,
			Pulse:         pulse,
		}
		var jres atpg.JustifyResult
		if r.cfg.FaultFreeJustify {
			jres = at.engine.JustifyCtx(ctx, gen.RequiredGood, lim)
		} else {
			jres = at.engine.JustifyDualCtx(ctx, f, gen.RequiredGood, gen.RequiredFaulty, lim)
		}
		if jres.Status != atpg.Success {
			sp.End("miss", obs.Attrs{"backtracks": float64(jres.Backtracks)})
			return nil, false
		}
		att.phases.DetJustifyFound++
		sp.End("found", obs.Attrs{
			"backtracks": float64(jres.Backtracks),
			"frames":     float64(jres.Frames),
		})
		prefix = fillX(rng, jres.Vectors)
	}
	seq := make([]logic.Vector, 0, len(prefix)+len(gen.Vectors))
	seq = append(seq, prefix...)
	seq = append(seq, fillX(rng, gen.Vectors)...)
	return seq, true
}

// fillX replaces unassigned input bits with random binary values; random
// fill maximizes incidental fault detection, which the fault simulator then
// credits.
func fillX(rng *runctl.Rand, seq []logic.Vector) []logic.Vector {
	out := make([]logic.Vector, len(seq))
	for i, v := range seq {
		w := v.Clone()
		for j := range w {
			if w[j] == logic.X {
				w[j] = logic.FromBit(uint64(rng.Intn(2)))
			}
		}
		out[i] = w
	}
	return out
}

// newBundle starts a crash-repro bundle with the run-level identity every
// kind shares: circuit, configuration knobs and the normalized injection
// spec.
func (r *runner) newBundle(kind, outcome string, f fault.Fault) *supervise.Bundle {
	return &supervise.Bundle{
		Version:     supervise.BundleVersion,
		Kind:        kind,
		RunID:       r.cfg.RunID,
		Circuit:     r.c.Name,
		Fingerprint: r.fp,
		Fault: supervise.BundleFault{
			Node:  int(f.Node),
			Pin:   f.Pin,
			Stuck: f.Stuck.String(),
			Name:  f.String(r.c),
		},
		Seed:        r.cfg.Seed,
		MasterDraws: r.rng.Draws(),
		Config: supervise.BundleConfig{
			MaxFrames:        r.cfg.MaxFrames,
			WeightGood:       r.cfg.WeightGood,
			Selection:        int(r.cfg.Selection),
			Crossover:        int(r.cfg.Crossover),
			Overlapping:      r.cfg.Overlapping,
			FaultFreeJustify: r.cfg.FaultFreeJustify,
		},
		InjectSpec: runctl.NormalizeInjectSpec(r.cfg.InjectSpec),
		Outcome:    outcome,
	}
}

// captureBundle builds the crash-repro bundle for a quarantined search
// attempt and publishes it. The first capture wins: a fault re-quarantined
// across passes or retries keeps the bundle of its original failure (an
// audit demotion replaces it — see runAudit — because the miscompare
// artifact supersedes an earlier budget bundle).
func (r *runner) captureBundle(q *Quarantined, at attempt, kind, outcome string, v supervise.Verdict) {
	if q.Bundle != nil {
		return
	}
	b := r.newBundle(kind, outcome, at.f)
	// Narrow the replayed injections to the failure modes that can produce
	// this bundle's outcome: a budget bundle captured while a panic rule was
	// armed for some other fault must not panic its own replay.
	switch kind {
	case supervise.KindPanic:
		b.InjectSpec = runctl.FilterInjectSpec(r.cfg.InjectSpec, "panic")
	case supervise.KindPreempt:
		b.InjectSpec = runctl.FilterInjectSpec(r.cfg.InjectSpec, "sleep")
	case supervise.KindBudget:
		b.InjectSpec = runctl.FilterInjectSpec(r.cfg.InjectSpec, "expire", "sleep")
	}
	b.SubSeed = at.subSeed
	b.StartGood = at.startGood.String()
	b.StartVectors = r.fsim.NumVectors()
	b.Pass = at.passNo
	b.Params = supervise.BundlePass{
		Method:          at.pass.Method.String(),
		TimePerFaultNS:  int64(at.pass.TimePerFault),
		Population:      at.pass.Population,
		Generations:     at.pass.Generations,
		SeqLen:          at.pass.SeqLen,
		MaxBacktracks:   at.pass.MaxBacktracks,
		JustifyAttempts: at.pass.JustifyAttempts,
	}
	b.PanicValue, b.PanicSite = v.PanicValue, v.PanicSite
	if kind == supervise.KindPreempt {
		b.WatchdogCeilingNS = int64(r.cfg.Watchdog.Ceiling)
		b.WatchdogStallNS = int64(r.cfg.Watchdog.Stall)
	}
	q.Bundle = b
	r.emitBundle(b)
}

// emitBundle counts the bundle and hands it to the configured sink.
func (r *runner) emitBundle(b *supervise.Bundle) {
	r.bundleSeq++
	r.cfg.Obs.Counter("bundle."+b.Kind, 1)
	r.cfg.Obs.Point("bundle", "captured", b.Fault.Name, b.Pass, obs.Attrs{
		"ordinal": float64(r.bundleSeq),
	})
	if r.cfg.Bundle != nil {
		r.cfg.Bundle(b)
	}
}
