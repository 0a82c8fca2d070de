package hybrid

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"gahitec/internal/bench"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/runctl"
)

// A pass starved of backtracks leaves most faults undecided; the retry phase
// must re-target them with escalated budgets and recover detections the pass
// could not afford.
func TestBudgetQuarantineRetriedWithEscalation(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	starved := Config{
		Passes: []Pass{{Method: MethodDet, TimePerFault: time.Hour, MaxBacktracks: 1, JustifyAttempts: 1}},
		Seed:   1,
	}
	base := Run(c, faults, starved)
	baseDet := base.Passes[len(base.Passes)-1].Detected
	if base.Retry.Quarantined == 0 {
		t.Fatal("starved pass quarantined nothing; test is vacuous")
	}
	if base.Retry.Retried != 0 {
		t.Fatal("retries ran with a zero-valued Escalation")
	}

	cfg := starved
	cfg.Retry = runctl.Escalation{MaxAttempts: 3, BaseBacktracks: 1000}
	res := Run(c, faults, cfg)

	if res.Retry.Quarantined == 0 || res.Retry.Retried == 0 {
		t.Fatalf("retry phase did not run: %+v", res.Retry)
	}
	if res.Retry.Recovered == 0 {
		t.Fatalf("escalated retries recovered nothing: %+v", res.Retry)
	}
	// The first retry already runs at BaseBacktracks*2; the recorded final
	// escalation must reflect at least that.
	if res.Retry.EscalatedBacktracks < 2000 {
		t.Fatalf("EscalatedBacktracks = %d, want >= 2000", res.Retry.EscalatedBacktracks)
	}
	last := res.Passes[len(res.Passes)-1]
	if last.Pass != len(cfg.Passes)+1 {
		t.Fatalf("retry phase row missing: last pass row is %d", last.Pass)
	}
	if last.Detected <= baseDet {
		t.Fatalf("retries detected nothing beyond the starved run: %d vs %d", last.Detected, baseDet)
	}
	// Accounting still closes after the retry phase.
	if last.Detected+last.Untestable+last.Aborted != res.TotalFaults {
		t.Fatalf("accounting broken after retries: %+v vs %d", last, res.TotalFaults)
	}
	for _, q := range res.Quarantine {
		if q.Resolved && q.Reason == ReasonBudget && q.Attempts > 0 {
			return // at least one fault demonstrably recovered by a retry
		}
	}
	t.Fatalf("no quarantine entry shows a budget fault recovered by retry: %+v", res.Quarantine)
}

// A fault that panics the engine in every attempt stays quarantined with
// ReasonPanic and is reported exhausted once the retry budget runs out.
func TestPanicQuarantineExhausts(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	hooks := runctl.NewHooks()
	hooks.Arm("generate", 0, runctl.ActPanic) // call 0: fire on every call
	cfg := Config{
		Passes: []Pass{{Method: MethodDet, TimePerFault: time.Hour, MaxBacktracks: 4000, JustifyAttempts: 1}},
		Seed:   1,
		Hooks:  hooks,
		Retry:  runctl.Escalation{MaxAttempts: 2},
	}
	res := Run(c, faults, cfg)
	if res.Retry.Quarantined != res.TotalFaults {
		t.Fatalf("quarantined %d of %d always-panicking faults", res.Retry.Quarantined, res.TotalFaults)
	}
	if res.Retry.Recovered != 0 || res.Retry.Exhausted != res.TotalFaults {
		t.Fatalf("unexpected retry outcome: %+v", res.Retry)
	}
	for _, q := range res.Quarantine {
		if q.Reason != ReasonPanic || q.Resolved || q.Attempts != 2 {
			t.Fatalf("bad quarantine entry: %+v", q)
		}
	}
}

// End-to-end trust-but-verify: a corrupted packed word fabricates one
// detection, the audit demotes exactly that fault, the retry phase
// re-targets it, and the post-retry audit confirms the recovery with a real
// (serially confirmed) test.
func TestAuditDemotionQuarantinedAndRecovered(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	mk := func(call int, retry runctl.Escalation) *Result {
		hooks := runctl.NewHooks()
		hooks.Arm(faultsim.SiteWord, call, runctl.ActCorrupt)
		return Run(c, faults, Config{
			Passes: []Pass{{Method: MethodDet, TimePerFault: time.Hour, MaxBacktracks: 4000, JustifyAttempts: 3}},
			Seed:   1,
			Hooks:  hooks,
			Audit:  true,
			Retry:  retry,
		})
	}

	// Find an injection point whose corruption fabricates a detection the
	// audit demotes (some calls land where the good PO is unknown or on a
	// fault that is genuinely detected later; those corrupt nothing or only
	// shift a vector index).
	var demotedRun *Result
	var call int
	for k := 1; k <= 40 && demotedRun == nil; k++ {
		if res := mk(k, runctl.Escalation{}); res.Audit != nil && res.Audit.Unverified == 1 {
			demotedRun, call = res, k
		}
	}
	if demotedRun == nil {
		t.Fatal("no injection point produced a demotable fabricated detection")
	}

	demoted := demotedRun.Audit.Demoted()
	if len(demoted) != 1 {
		t.Fatalf("demoted %d faults, want exactly 1", len(demoted))
	}
	found := false
	for _, q := range demotedRun.Quarantine {
		if q.Fault == demoted[0] {
			found = true
			if q.Reason != ReasonAudit {
				t.Fatalf("demoted fault quarantined as %s, want audit", q.Reason)
			}
			if q.Resolved {
				t.Fatal("demoted fault marked resolved with retries disabled")
			}
		}
	}
	if !found {
		t.Fatalf("demoted fault %s not quarantined", demoted[0].String(c))
	}

	// Same corruption, retries on: the demoted fault must be re-targeted and
	// the final (post-retry) audit must verify its detection via the new
	// serially confirmed test.
	res := mk(call, runctl.Escalation{MaxAttempts: 2})
	if res.Audit == nil {
		t.Fatal("no audit report")
	}
	if res.Retry.Retried == 0 {
		t.Fatalf("audit demotion not retried: %+v", res.Retry)
	}
	for _, q := range res.Quarantine {
		if q.Reason != ReasonAudit {
			continue
		}
		if q.Attempts == 0 {
			t.Fatalf("audit-quarantined fault never retried: %+v", q)
		}
		if q.Resolved && res.Audit.Unverified != 0 {
			t.Fatalf("fault marked recovered but final audit still demotes %d claims", res.Audit.Unverified)
		}
	}
}

// A journal written for one revision of a netlist must not resume against a
// structurally different one, even under the same circuit name.
func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	var last *Checkpoint
	cfg := deterministicConfig(1)
	cfg.Checkpoint = func(ck *Checkpoint) { last = ck }
	Run(c, faults, cfg)
	if last == nil {
		t.Fatal("no checkpoint emitted")
	}

	// The same netlist with one gate changed: same name, same inputs, a
	// different structure.
	changed := strings.Replace(s27, "G16 = OR(G3, G8)", "G16 = AND(G3, G8)", 1)
	c2, err := bench.ParseString(changed, "s27")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), c2, fault.Collapse(c2), deterministicConfig(1), last); err == nil {
		t.Error("journal resumed against a structurally different circuit")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("rejection does not mention the fingerprint: %v", err)
	}

	// A tampered fingerprint is refused outright.
	bad := *last
	bad.Fingerprint = "0000000000000000"
	if _, err := Resume(context.Background(), c, faults, deterministicConfig(1), &bad); err == nil {
		t.Error("tampered fingerprint accepted")
	}

	// An unknown quarantine reason is refused, not silently dropped.
	bad = *last
	bad.Quarantine = append([]SavedQuarantine(nil), SavedQuarantine{Fault: SavedFault{Node: 0, Pin: -1, Stuck: "0"}, Reason: "vibes"})
	if _, err := Resume(context.Background(), c, faults, deterministicConfig(1), &bad); err == nil {
		t.Error("unknown quarantine reason accepted")
	}
}

// The retry tail spends no sequence on a fault the test set already
// detects: like a pass, a retry attempt skips a target that an earlier retry
// in the same attempt detected. (Audit demotions are retried regardless, but
// this run audits nothing.)
func TestRetrySkipsFaultsDetectedEarlierInAttempt(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	hooks := runctl.NewHooks()
	for k := 1; k <= 40; k++ { // expire the first 40 searches
		hooks.Arm("generate", k, runctl.ActExpire)
	}
	cfg := deterministicConfig(1)
	cfg.Passes = cfg.Passes[:1]
	cfg.Hooks = hooks
	cfg.Retry = runctl.Escalation{MaxAttempts: 1}
	res := Run(c, faults, cfg)
	if res.Retry.Retried == 0 {
		t.Fatal("nothing was retried; the retry tail was not exercised")
	}
	fs := faultsim.New(c, faults)
	for i, seq := range res.TestSet {
		if !slices.Contains(fs.Remaining(), res.Targets[i]) {
			t.Fatalf("sequence %d targets %s, which sequences 0-%d already detect",
				i, res.Targets[i].String(c), i-1)
		}
		fs.ApplySequence(seq)
	}
}
