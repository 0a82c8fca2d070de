package hybrid

import (
	"context"
	"fmt"
	"time"

	"gahitec/internal/atpg"
	"gahitec/internal/audit"
	"gahitec/internal/fault"
	"gahitec/internal/ga"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// ReproReport is the outcome of replaying a crash-repro bundle.
type ReproReport struct {
	Kind     string // bundle kind
	Expected string // the outcome the bundle recorded
	Outcome  string // the outcome the replay produced
	Match    bool   // replay reproduced the recorded outcome

	// PanicSite is the injection site of a reproduced injected panic;
	// Detail carries a human-readable elaboration (audit record, mismatch
	// explanation).
	PanicSite string
	Detail    string
}

// Repro replays a crash-repro bundle against the circuit in single-fault
// isolation and reports whether the recorded outcome reproduced. The replay
// is deterministic: the search re-runs from the bundle's forked sub-seed,
// start state and effective pass parameters, with the bundle's normalized
// injection spec re-armed; an audit-miscompare bundle replays its test set
// on the serial reference simulator instead. ctx bounds the whole replay.
func Repro(ctx context.Context, c *netlist.Circuit, b *supervise.Bundle, rec *obs.Recorder) (*ReproReport, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if c.Name != b.Circuit {
		return nil, fmt.Errorf("hybrid: bundle is for circuit %q, not %q", b.Circuit, c.Name)
	}
	if fp := c.Fingerprint(); fp != b.Fingerprint {
		return nil, fmt.Errorf("hybrid: bundle fingerprint %s does not match circuit %q (%s): the netlist changed since the bundle was captured",
			b.Fingerprint, c.Name, fp)
	}
	f, err := SavedFault{Node: b.Fault.Node, Pin: b.Fault.Pin, Stuck: b.Fault.Stuck}.fault(c)
	if err != nil {
		return nil, fmt.Errorf("hybrid: bad bundle fault: %w", err)
	}
	if b.Kind == supervise.KindAuditMiscompare {
		return reproAudit(ctx, c, b, f, rec)
	}
	return reproSearch(ctx, c, b, f, rec)
}

// reproAudit replays the bundled test set on the serial reference simulator
// and checks that the demotion reproduces: the reference must not confirm
// the claim at its claimed vector.
func reproAudit(ctx context.Context, c *netlist.Circuit, b *supervise.Bundle, f fault.Fault, rec *obs.Recorder) (*ReproReport, error) {
	testSet := make([][]logic.Vector, len(b.TestSet))
	for i, ss := range b.TestSet {
		seq, err := parseSeq(ss, len(c.PIs))
		if err != nil {
			return nil, fmt.Errorf("hybrid: bad bundle sequence: %w", err)
		}
		testSet[i] = seq
	}
	rep, err := audit.VerifyObs(ctx, c, testSet, []audit.Claim{{Fault: f, Vector: b.ClaimVector}}, rec)
	if err != nil {
		return nil, err
	}
	r := rep.Records[0]
	outcome := "miscompare"
	if r.Verdict == audit.Confirmed {
		outcome = "confirmed"
	}
	return &ReproReport{
		Kind:     b.Kind,
		Expected: b.Outcome,
		Outcome:  outcome,
		Match:    outcome == b.Outcome,
		Detail:   r.String(c),
	}, nil
}

// reproSearch re-runs the bundled fault attempt: same effective pass
// parameters, same forked random stream, same start state, same (normalized)
// injected failures, and — for preemption bundles — the same watchdog.
func reproSearch(ctx context.Context, c *netlist.Circuit, b *supervise.Bundle, f fault.Fault, rec *obs.Recorder) (*ReproReport, error) {
	hooks, err := runctl.ParseInjectSpec(b.InjectSpec)
	if err != nil {
		return nil, fmt.Errorf("hybrid: bundle inject spec: %w", err)
	}
	startGood, err := logic.ParseVector(b.StartGood)
	if err != nil {
		return nil, fmt.Errorf("hybrid: bundle start state: %w", err)
	}
	if len(startGood) != len(c.DFFs) {
		return nil, fmt.Errorf("hybrid: bundle start state has %d flip-flops, circuit has %d", len(startGood), len(c.DFFs))
	}
	method := MethodDet
	if b.Params.Method == "GA" {
		method = MethodGA
	}
	pass := Pass{
		Method:          method,
		TimePerFault:    time.Duration(b.Params.TimePerFaultNS),
		Population:      b.Params.Population,
		Generations:     b.Params.Generations,
		SeqLen:          b.Params.SeqLen,
		MaxBacktracks:   b.Params.MaxBacktracks,
		JustifyAttempts: b.Params.JustifyAttempts,
	}
	if pass.JustifyAttempts < 1 {
		pass.JustifyAttempts = 1
	}
	cfg := Config{
		Seed:             b.Seed,
		MaxFrames:        b.Config.MaxFrames,
		WeightGood:       b.Config.WeightGood,
		Selection:        ga.Selection(b.Config.Selection),
		Crossover:        ga.Crossover(b.Config.Crossover),
		Overlapping:      b.Config.Overlapping,
		FaultFreeJustify: b.Config.FaultFreeJustify,
		Hooks:            hooks,
		Obs:              rec,
		Watchdog: supervise.Watchdog{
			Ceiling: time.Duration(b.WatchdogCeilingNS),
			Stall:   time.Duration(b.WatchdogStallNS),
		},
	}
	r := &runner{c: c, cfg: cfg, engine: atpg.NewEngine(c)}
	r.engine.SetHooks(hooks)
	r.engine.SetObs(rec)
	at := attempt{
		f: f, pass: pass, passNo: b.Pass, subSeed: b.SubSeed, startGood: startGood,
		label: r.faultLabel(f), rec: rec, engine: r.engine,
	}
	att, v := r.runAttempt(ctx, at)
	outcome := attemptOutcome(att, v)
	rep := &ReproReport{
		Kind:      b.Kind,
		Expected:  b.Outcome,
		Outcome:   outcome,
		Match:     outcome == b.Outcome,
		PanicSite: v.PanicSite,
	}
	if rep.Match && b.PanicSite != "" && v.PanicSite != b.PanicSite {
		rep.Match = false
		rep.Detail = fmt.Sprintf("panic reproduced at site %q, bundle recorded %q", v.PanicSite, b.PanicSite)
	}
	if !rep.Match && rep.Detail == "" {
		rep.Detail = fmt.Sprintf("replay produced %q, bundle recorded %q", outcome, b.Outcome)
	}
	return rep, nil
}
