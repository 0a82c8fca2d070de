package hybrid

import (
	"testing"
	"time"

	"gahitec/internal/bench"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/netlist"
	"gahitec/internal/testgen"

	"math/rand"
)

const s27 = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`

func mustParse(t *testing.T, src, name string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGAHITECOnS27(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	cfg := GAHITECConfig(8*c.SeqDepth(), 0.05)
	cfg.Seed = 1
	res := Run(c, faults, cfg)

	if len(res.Passes) != 3 {
		t.Fatalf("passes = %d", len(res.Passes))
	}
	last := res.Passes[2]
	if last.Detected+last.Untestable+last.Aborted != res.TotalFaults {
		t.Fatalf("accounting: %d det + %d unt + %d abort != %d total",
			last.Detected, last.Untestable, last.Aborted, res.TotalFaults)
	}
	// Monotone cumulative columns.
	for i := 1; i < 3; i++ {
		if res.Passes[i].Detected < res.Passes[i-1].Detected ||
			res.Passes[i].Vectors < res.Passes[i-1].Vectors ||
			res.Passes[i].Untestable < res.Passes[i-1].Untestable ||
			res.Passes[i].Elapsed < res.Passes[i-1].Elapsed {
			t.Fatalf("pass stats not cumulative: %+v", res.Passes)
		}
	}
	if res.FaultCoverage() < 0.3 {
		t.Errorf("coverage only %.0f%%", 100*res.FaultCoverage())
	}
	if res.Phases.Targeted == 0 || res.Phases.ExciteProp == 0 {
		t.Error("phase counters empty")
	}
	t.Logf("s27 GA-HITEC: det=%d unt=%d abort=%d vec=%d cov=%.0f%% phases=%+v",
		last.Detected, last.Untestable, last.Aborted, last.Vectors,
		100*res.FaultCoverage(), res.Phases)
}

// Every test in the produced test set must be confirmed by replaying the
// whole flattened test set through a fresh fault simulator: the cumulative
// detection count must match the reported one.
func TestTestSetReplays(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	cfg := GAHITECConfig(16, 0.05)
	cfg.Seed = 2
	res := Run(c, faults, cfg)

	replay := faultsim.New(c, faults)
	for _, seq := range res.TestSet {
		replay.ApplySequence(seq)
	}
	want := res.Passes[len(res.Passes)-1].Detected
	if replay.NumDetected() != want {
		t.Fatalf("replay detects %d, run reported %d", replay.NumDetected(), want)
	}
}

// Untestable faults identified by the run must never be detectable by
// random simulation.
func TestRunUntestableSound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		c := testgen.RandomCircuit(r, "rc", 3, 2, 15+r.Intn(15))
		faults := fault.Collapse(c)
		cfg := GAHITECConfig(8, 0.02)
		cfg.Seed = int64(trial)
		res := Run(c, faults, cfg)
		for _, f := range res.Untestable {
			seq := testgen.RandomSequence(r, 80, len(c.PIs), 0)
			if ok, _ := faultsim.Detects(c, f, seq); ok {
				t.Fatalf("trial %d: untestable %s detected by random vectors", trial, f.String(c))
			}
		}
	}
}

func TestHITECBaselineOnS27(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	cfg := HITECConfig(3, 0.05)
	cfg.Seed = 4
	res := Run(c, faults, cfg)
	last := res.Passes[len(res.Passes)-1]
	if last.Detected+last.Untestable+last.Aborted != res.TotalFaults {
		t.Fatal("HITEC accounting broken")
	}
	if res.Phases.GAJustifyCalls != 0 {
		t.Error("HITEC mode must not call the GA")
	}
	if res.Phases.DetJustifyCalls == 0 {
		t.Error("HITEC mode must call deterministic justification")
	}
	t.Logf("s27 HITEC: det=%d unt=%d vec=%d", last.Detected, last.Untestable, last.Vectors)
}

func TestDeterministicForSeed(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	cfg := GAHITECConfig(16, 0.02)
	cfg.Seed = 7
	// Zero the time limits' influence by making them generous relative to
	// the tiny circuit; two runs with one seed must agree on the test set.
	a := Run(c, faults, cfg)
	b := Run(c, faults, cfg)
	if len(a.TestSet) != len(b.TestSet) {
		t.Fatalf("test set sizes differ: %d vs %d", len(a.TestSet), len(b.TestSet))
	}
	aLast, bLast := a.Passes[2], b.Passes[2]
	if aLast.Detected != bLast.Detected || aLast.Untestable != bLast.Untestable {
		t.Fatalf("results differ across identical runs: %+v vs %+v", aLast, bLast)
	}
}

func TestConfigsShape(t *testing.T) {
	cfg := GAHITECConfig(24, 1)
	if len(cfg.Passes) != 3 {
		t.Fatal("GAHITEC wants 3 passes")
	}
	p := cfg.Passes
	if p[0].Method != MethodGA || p[1].Method != MethodGA || p[2].Method != MethodDet {
		t.Error("pass methods wrong")
	}
	if p[0].Population != 64 || p[1].Population != 128 {
		t.Error("populations not 64/128 (Table I)")
	}
	if p[0].Generations != 4 || p[1].Generations != 8 {
		t.Error("generations not 4/8 (Table I)")
	}
	if p[0].SeqLen != 12 || p[1].SeqLen != 24 {
		t.Error("sequence lengths not x/2, x (Table I)")
	}
	if p[0].TimePerFault != time.Second || p[1].TimePerFault != 10*time.Second || p[2].TimePerFault != 100*time.Second {
		t.Error("time limits not 1/10/100 s (Table I)")
	}
	h := HITECConfig(3, 1)
	if h.Passes[0].MaxBacktracks*10 != h.Passes[1].MaxBacktracks ||
		h.Passes[1].MaxBacktracks*10 != h.Passes[2].MaxBacktracks {
		t.Error("HITEC backtrack limits must scale by 10")
	}
	if m := MethodGA.String(); m != "GA" {
		t.Errorf("MethodGA = %q", m)
	}
}

// GA-HITEC on a shift-register-heavy circuit: the GA should justify states
// easily, giving high coverage in pass 1 already.
func TestGAHITECShiftCircuit(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
q1 = DFF(a)
q2 = DFF(q1)
q3 = DFF(q2)
n1 = AND(q1, q3)
n2 = XOR(n1, q2)
z = OR(n2, b)
`
	c := mustParse(t, src, "shifty")
	faults := fault.Collapse(c)
	cfg := GAHITECConfig(12, 0.05)
	cfg.Seed = 5
	res := Run(c, faults, cfg)
	if res.Passes[0].Detected == 0 {
		t.Error("pass 1 detected nothing on an easily justifiable circuit")
	}
	if res.FaultCoverage() < 0.5 {
		t.Errorf("final coverage %.0f%%", 100*res.FaultCoverage())
	}
}

// The preprocessing screen must identify injected-redundancy faults before
// pass 1 and never mark a detectable fault.
func TestPreprocessUntestable(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
q = DFF(z)
n = AND(a, b)
m = OR(a, n)
z = XOR(m, q)
`
	c := mustParse(t, src, "red")
	faults := fault.Collapse(c)
	cfg := GAHITECConfig(8, 0.02)
	cfg.Seed = 11
	cfg.PreprocessUntestable = true
	res := Run(c, faults, cfg)
	if res.Phases.Preprocessed == 0 {
		t.Error("preprocessing found no untestable faults in a redundant circuit")
	}
	// Soundness: preprocessed untestables must not be detectable.
	r := rand.New(rand.NewSource(1))
	for _, f := range res.Untestable {
		seq := testgen.RandomSequence(r, 100, len(c.PIs), 0)
		if ok, _ := faultsim.Detects(c, f, seq); ok {
			t.Fatalf("preprocessed untestable %s detected by random vectors", f.String(c))
		}
	}
	// The screen commits its marks in fault-list order at any worker count.
	cfg.Workers = 4
	par := Run(c, faults, cfg)
	n := res.Phases.Preprocessed
	if par.Phases.Preprocessed != n || len(par.Untestable) < n {
		t.Fatalf("4 workers screened %d untestables, 1 worker %d", par.Phases.Preprocessed, n)
	}
	for i, f := range res.Untestable[:n] {
		if par.Untestable[i] != f {
			t.Fatalf("screen mark %d: %s at 4 workers, %s at 1", i, par.Untestable[i].String(c), f.String(c))
		}
	}
}

// Fault-aware (dual) deterministic justification should not increase verify
// failures relative to the fault-free ablation mode.
func TestDualJustifyNoWorseVerify(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	base := HITECConfig(2, 0.03)
	base.Seed = 13

	dual := base
	dualRes := Run(c, faults, dual)

	ff := base
	ff.FaultFreeJustify = true
	ffRes := Run(c, faults, ff)

	if dualRes.Phases.VerifyFailures > ffRes.Phases.VerifyFailures+2 {
		t.Errorf("dual justify verify failures %d vs fault-free %d",
			dualRes.Phases.VerifyFailures, ffRes.Phases.VerifyFailures)
	}
}

func TestVectorsFlatten(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	cfg := GAHITECConfig(16, 0.02)
	cfg.Seed = 9
	res := Run(c, faults, cfg)
	n := 0
	for _, seq := range res.TestSet {
		n += len(seq)
	}
	if len(res.Vectors()) != n {
		t.Fatal("Vectors() length mismatch")
	}
	if res.Passes[len(res.Passes)-1].Vectors != n {
		t.Fatalf("vector accounting: stats %d, test set %d",
			res.Passes[len(res.Passes)-1].Vectors, n)
	}
}
