package hybrid

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gahitec/internal/fault"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// armed parses an injection spec into hooks and wires both the hooks and the
// spec string (for bundle capture) into the config.
func armed(t *testing.T, cfg *Config, spec string) {
	t.Helper()
	hooks, err := runctl.ParseInjectSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hooks = hooks
	cfg.InjectSpec = spec
}

// A search that goes heartbeat-silent (an injected multi-second sleep inside
// the engine) is hard-preempted by the stall watchdog; the run completes the
// remaining faults and records the preemption in the phase counters, the
// quarantine and a crash-repro bundle.
func TestWatchdogPreemptsStuckSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock watchdog thresholds are unreliable under -short/-race slowdown")
	}
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	cfg := deterministicConfig(1)
	armed(t, &cfg, "generate:3:sleep=5s")
	cfg.Watchdog = supervise.Watchdog{Stall: 100 * time.Millisecond}
	var bundles []*supervise.Bundle
	cfg.Bundle = func(b *supervise.Bundle) { bundles = append(bundles, b) }

	start := time.Now()
	res := Run(c, faults, cfg)
	if el := time.Since(start); el > 4*time.Second {
		t.Errorf("run waited out the injected sleep (%s) instead of preempting", el)
	}
	if res.Interrupted {
		t.Fatal("preemption interrupted the run instead of one fault")
	}
	if len(res.Passes) != len(cfg.Passes) {
		t.Fatalf("run stopped after %d of %d passes", len(res.Passes), len(cfg.Passes))
	}
	if res.Phases.Preempted != 1 {
		t.Fatalf("Phases.Preempted = %d, want 1", res.Phases.Preempted)
	}
	// Accounting still closes around the preempted fault.
	last := res.Passes[len(res.Passes)-1]
	if last.Detected+last.Untestable+last.Aborted != res.TotalFaults {
		t.Fatalf("accounting broken after preemption: %+v vs %d", last, res.TotalFaults)
	}
	var pre *Quarantined
	for i := range res.Quarantine {
		if res.Quarantine[i].Reason == ReasonPreempt {
			pre = &res.Quarantine[i]
		}
	}
	if pre == nil {
		t.Fatalf("no preempt-reason quarantine entry: %+v", res.Quarantine)
	}
	if pre.Bundle == nil || pre.Bundle.Kind != supervise.KindPreempt {
		t.Fatalf("preempted fault carries no preempt bundle: %+v", pre.Bundle)
	}
	if pre.Bundle.Outcome != "preempt_stall" {
		t.Fatalf("bundle outcome %q, want preempt_stall", pre.Bundle.Outcome)
	}
	sunk := false
	for _, b := range bundles {
		sunk = sunk || b.Kind == supervise.KindPreempt
	}
	if !sunk {
		t.Fatalf("bundle sink did not receive the preempt bundle (%d others did arrive)", len(bundles))
	}

	// The bundle replays: same stall watchdog, normalized sleep injection,
	// same preemption.
	rep, err := Repro(context.Background(), c, pre.Bundle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match || rep.Outcome != "preempt_stall" {
		t.Fatalf("preempt bundle did not reproduce: %+v", rep)
	}
}

// The ceiling watchdog preempts a search that keeps its heartbeat but runs
// past the wall-clock ceiling. The ceiling must stay far from both ends:
// un-injected s27 attempts under deterministicConfig took up to 0.28 s on a
// 2-vCPU VM, with or without two CPU-bound processes beside the test, so a
// 150 ms ceiling preempted two or three ordinary attempts as well. The
// ceiling is seven times that longest attempt, and the injected sleep ten
// times the ceiling.
func TestWatchdogCeilingPreemptsLongSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock watchdog thresholds are unreliable under -short/-race slowdown")
	}
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	cfg := deterministicConfig(1)
	armed(t, &cfg, "generate:3:sleep=20s")
	cfg.Watchdog = supervise.Watchdog{Ceiling: 2 * time.Second}
	res := Run(c, faults, cfg)
	if res.Phases.Preempted != 1 {
		t.Fatalf("Phases.Preempted = %d, want 1", res.Phases.Preempted)
	}
	var pre *Quarantined
	for i := range res.Quarantine {
		if res.Quarantine[i].Reason == ReasonPreempt {
			pre = &res.Quarantine[i]
		}
	}
	if pre == nil || pre.Bundle == nil || pre.Bundle.Outcome != "preempt_ceiling" {
		t.Fatalf("expected a preempt_ceiling bundle, got %+v", pre)
	}
}

// forcedGovernor returns a governor whose probe walks a scripted pressure
// schedule: normal for the first few samples, then soft, then hard, then
// relieved. The schedule depends only on the sample count, so two identical
// runs see identical pressure.
func forcedGovernor() *supervise.Governor {
	n := 0
	return &supervise.Governor{
		SoftBytes: 1 << 20,
		HardBytes: 2 << 20,
		Probe: func() uint64 {
			n++
			switch {
			case n <= 4:
				return 0
			case n <= 10:
				return 3 << 19 // soft
			case n <= 16:
				return 3 << 20 // hard
			default:
				return 0 // pressure relieved
			}
		},
	}
}

// Degradation under (forced) memory pressure is deterministic: two runs with
// the same seed and the same pressure schedule produce bit-identical test
// sets and identical decision logs.
func TestGovernorDegradationDeterministic(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	once := func() *Result {
		cfg := deterministicConfig(1)
		cfg.Governor = forcedGovernor()
		return Run(c, faults, cfg)
	}
	a, b := once(), once()
	sameResults(t, a, b)
	if len(a.Degradations) == 0 {
		t.Fatal("forced pressure schedule produced no degradation decisions")
	}
	if !reflect.DeepEqual(a.Degradations, b.Degradations) {
		t.Fatalf("decision logs diverged:\n%v\n%v", a.Degradations, b.Degradations)
	}
	// The log walks the forced schedule: up to soft, up to hard, back down.
	levels := []string{supervise.LevelNormal.String()}
	for _, d := range a.Degradations {
		if d.From != levels[len(levels)-1] {
			t.Fatalf("decision %v does not chain from %v", d, levels[len(levels)-1])
		}
		levels = append(levels, d.To)
	}
	want := []string{"normal", "soft", "hard", "normal"}
	if !reflect.DeepEqual(levels, want) {
		t.Fatalf("level walk %v, want %v", levels, want)
	}
}

// An injected engine panic yields a crash-repro bundle whose replay panics at
// the same injection site.
func TestPanicBundleReproduces(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	cfg := deterministicConfig(1)
	armed(t, &cfg, "generate:3:panic")
	var bundles []*supervise.Bundle
	cfg.Bundle = func(b *supervise.Bundle) { bundles = append(bundles, b) }
	res := Run(c, faults, cfg)
	if res.Phases.Panics != 1 {
		t.Fatalf("Phases.Panics = %d, want 1", res.Phases.Panics)
	}
	var pb *supervise.Bundle
	for _, b := range bundles {
		if b.Kind == supervise.KindPanic {
			pb = b
		}
	}
	if pb == nil {
		t.Fatalf("no panic bundle captured: %+v", bundles)
	}
	if pb.PanicSite != "generate" || pb.Outcome != "panic" {
		t.Fatalf("panic bundle site %q outcome %q", pb.PanicSite, pb.Outcome)
	}

	// Round-trip through the serialized form, exactly like -repro does.
	path := t.TempDir() + "/bundle.json"
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := supervise.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Repro(context.Background(), c, loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match || rep.Outcome != "panic" || rep.PanicSite != "generate" {
		t.Fatalf("panic bundle did not reproduce: %+v", rep)
	}

	// Budget bundles captured in the same run must NOT inherit the panic
	// rule: their replay re-runs a natural search and reproduces the budget
	// exhaustion, not somebody else's injected panic.
	for _, b := range bundles {
		if b.Kind != supervise.KindBudget {
			continue
		}
		if b.InjectSpec != "" {
			t.Fatalf("budget bundle inherited foreign injections: %q", b.InjectSpec)
		}
		rep, err := Repro(context.Background(), c, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Match {
			t.Fatalf("budget bundle from a panic-injected run did not reproduce: %+v", rep)
		}
		break
	}
}

// A budget-exhausted fault (injected expiry) yields a bundle whose replay is
// undecided again.
func TestBudgetBundleReproduces(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	cfg := deterministicConfig(1)
	armed(t, &cfg, "generate:*:expire")
	var bundles []*supervise.Bundle
	cfg.Bundle = func(b *supervise.Bundle) { bundles = append(bundles, b) }
	res := Run(c, faults, cfg)
	if len(bundles) == 0 {
		t.Fatal("no budget bundles captured")
	}
	if res.Phases.ExciteProp != 0 {
		t.Fatal("expired searches still made progress")
	}
	b := bundles[0]
	if b.Kind != supervise.KindBudget || b.Outcome != "undecided" {
		t.Fatalf("bundle kind %q outcome %q", b.Kind, b.Outcome)
	}
	rep, err := Repro(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("budget bundle did not reproduce: %+v", rep)
	}
}

// An audit miscompare (fabricated by corrupting one packed simulator word)
// yields a data-driven bundle whose replay demotes the same claim on the
// serial reference.
func TestAuditMiscompareBundleReproduces(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	// Find an injection call whose corruption fabricates a demotable claim
	// (calls landing where the good PO is unknown corrupt nothing).
	var mb *supervise.Bundle
	for k := 1; k <= 8 && mb == nil; k++ {
		cfg := deterministicConfig(1)
		cfg.Audit = true
		armed(t, &cfg, "faultsim.word:"+string(rune('0'+k))+":corrupt")
		cfg.Bundle = func(b *supervise.Bundle) {
			if b.Kind == supervise.KindAuditMiscompare {
				mb = b
			}
		}
		Run(c, faults, cfg)
	}
	if mb == nil {
		t.Fatal("no injection call produced a demotable fabricated detection")
	}
	if mb.Outcome != "miscompare" || len(mb.TestSet) == 0 {
		t.Fatalf("miscompare bundle incomplete: outcome %q, %d sequences", mb.Outcome, len(mb.TestSet))
	}
	rep, err := Repro(context.Background(), c, mb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match || rep.Outcome != "miscompare" {
		t.Fatalf("miscompare bundle did not reproduce: %+v", rep)
	}
}

// Version-4 checkpoints carry quarantine bundles and the degradation log
// through a JSON round-trip, and Validate accepts them.
func TestCheckpointCarriesBundlesAndDegradations(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	cfg := deterministicConfig(1)
	armed(t, &cfg, "generate:*:expire")
	cfg.Governor = forcedGovernor()
	cfg.CheckpointEvery = 1
	var last *Checkpoint
	cfg.Checkpoint = func(ck *Checkpoint) { last = ck }
	Run(c, faults, cfg)
	if last == nil {
		t.Fatal("no checkpoint emitted")
	}
	if last.Version != CheckpointVersion {
		t.Fatalf("checkpoint version %d, want %d", last.Version, CheckpointVersion)
	}
	withBundle := 0
	for _, sq := range last.Quarantine {
		if sq.Bundle != nil {
			withBundle++
		}
	}
	if withBundle == 0 {
		t.Fatalf("no quarantine entry carries its bundle: %+v", last.Quarantine)
	}
	if len(last.Degradations) == 0 {
		t.Fatal("checkpoint lost the degradation log")
	}

	path := t.TempDir() + "/ck.json"
	if err := runctl.SaveJSON(path, last); err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := runctl.LoadJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(c, cfg, len(faults)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Degradations, last.Degradations) {
		t.Fatal("degradation log did not round-trip")
	}
}

// Quarantine retries replay from the bundle's forked sub-seed, so a run's
// retry phase is deterministic given the quarantine list alone.
func TestRetryFromBundleDeterministic(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	once := func() *Result {
		cfg := deterministicConfig(1)
		// Expire the first two searches so something lands in quarantine,
		// then let escalated retries resolve it.
		armed(t, &cfg, "generate:1:expire,generate:2:expire")
		cfg.Retry = runctl.Escalation{MaxAttempts: 2}
		return Run(c, faults, cfg)
	}
	a, b := once(), once()
	sameResults(t, a, b)
	if a.Retry.Quarantined == 0 {
		t.Fatal("nothing was quarantined; the retry path was not exercised")
	}
	if a.Retry.Retried != b.Retry.Retried || a.Retry.Recovered != b.Retry.Recovered {
		t.Fatalf("retry stats diverged: %+v vs %+v", a.Retry, b.Retry)
	}
}

// One Governor may serve many runs: each run builds its own scheduler from
// the settings, so a second run neither extends the first run's decision log
// nor inherits its level or sample count.
func TestGovernorSharedAcrossRuns(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	k, observed := 0, 0 // k: samples taken by the current run
	g := &supervise.Governor{
		SoftBytes: 100,
		Probe: func() uint64 {
			k++
			if k >= 3 && k <= 6 {
				return 500
			}
			return 10
		},
		OnDecision: func(supervise.Decision) { observed++ },
	}
	run := func() *Result {
		k = 0 // replay the same pressure schedule
		cfg := deterministicConfig(1)
		cfg.Passes = cfg.Passes[:1]
		cfg.Governor = g
		return Run(c, faults, cfg)
	}
	a := run()
	first := append([]supervise.Decision(nil), a.Degradations...)
	b := run()
	if len(first) == 0 {
		t.Fatal("forced pressure schedule produced no decisions")
	}
	if !reflect.DeepEqual(a.Degradations, first) {
		t.Fatalf("the second run changed the first run's log:\n%v\n%v", first, a.Degradations)
	}
	if !reflect.DeepEqual(b.Degradations, first) {
		t.Fatalf("second run's log differs from the first's:\n%v\n%v", b.Degradations, first)
	}
	if observed != len(a.Degradations)+len(b.Degradations) {
		t.Fatalf("OnDecision observed %d decisions, the runs logged %d", observed, len(a.Degradations)+len(b.Degradations))
	}
}

// A run has one sample counter: a governed parallel run samples the same
// scheduler in the schedule passes and in the retry tail, so sample numbers
// strictly increase across its decision log.
func TestGovernorSamplesIncreaseThroughRetry(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	n := 0
	cfg := deterministicConfig(1)
	cfg.Workers = 4
	// Every search expires undecided, so every fault is quarantined and
	// every retry attempt samples the scheduler once per fault.
	armed(t, &cfg, "generate:*:expire")
	cfg.Retry = runctl.Escalation{MaxAttempts: 2}
	cfg.Governor = &supervise.Governor{SoftBytes: 100, Probe: func() uint64 {
		n++
		if n%4 == 0 {
			return 500
		}
		return 10
	}}
	res := Run(c, faults, cfg)
	inRetry := 0
	for i, d := range res.Degradations {
		if i > 0 && d.Sample <= res.Degradations[i-1].Sample {
			t.Fatalf("decision %d (%v) does not follow decision %d (%v)", i, d, i-1, res.Degradations[i-1])
		}
		if d.Pass == len(cfg.Passes)+1 {
			inRetry++
		}
	}
	if inRetry == 0 {
		t.Fatalf("no decision in the retry tail: %v", res.Degradations)
	}
}

// A resumed governed run continues its memory controller where the
// checkpoint left it. Under constant soft pressure, a run interrupted after
// a checkpoint taken at the soft level, then resumed from that journal, ends
// with the uninterrupted run's decision log and test set: it neither logs
// normal -> soft a second time nor, at four workers, runs faults at normal
// effort while it throttles the pool down again.
func TestResumeKeepsSchedulerState(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	config := func(workers int) Config {
		cfg := deterministicConfig(3)
		cfg.Workers = workers
		cfg.Governor = &supervise.Governor{SoftBytes: 100, Probe: func() uint64 { return 500 }}
		return cfg
	}
	for _, workers := range []int{1, 4} {
		full := Run(c, faults, config(workers))

		ctx, cancel := context.WithCancel(context.Background())
		var last *Checkpoint
		cfg := config(workers)
		cfg.CheckpointEvery = 1
		cfg.Checkpoint = func(ck *Checkpoint) {
			last = ck
			if n := len(ck.Degradations); n > 0 && ck.Degradations[n-1].To == "soft" {
				cancel()
			}
		}
		part := RunCtx(ctx, c, faults, cfg)
		cancel()
		if !part.Interrupted || last == nil || last.Scheduler == nil {
			t.Fatalf("workers=%d: no interrupted run with a scheduler checkpoint (interrupted %v)", workers, part.Interrupted)
		}
		path := t.TempDir() + "/ck.json"
		if err := runctl.SaveJSON(path, last); err != nil {
			t.Fatal(err)
		}
		var ck Checkpoint
		if err := runctl.LoadJSON(path, &ck); err != nil {
			t.Fatal(err)
		}
		if ck.Scheduler.Level != supervise.LevelSoft {
			t.Fatalf("workers=%d: checkpointed level %s, want soft", workers, ck.Scheduler.Level)
		}

		res, err := Resume(context.Background(), c, faults, config(workers), &ck)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameResults(t, full, res)
		if !reflect.DeepEqual(res.Degradations, full.Degradations) {
			t.Fatalf("workers=%d: resumed decision log\n%v\nuninterrupted\n%v", workers, res.Degradations, full.Degradations)
		}
	}
}
