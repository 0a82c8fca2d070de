package gahitec_test

// This file regenerates the paper's evaluation: one benchmark per table and
// figure, plus the ablation studies the text argues for (fitness weighting,
// GA operator choices). Absolute times differ from the 1995 SPARCstation
// numbers by construction; the reported custom metrics (detected faults,
// vectors, untestable counts) are the reproduction targets. Results are also
// summarized in EXPERIMENTS.md.
//
// Run everything:     go test -bench=. -benchmem
// One table:          go test -bench=BenchmarkTable2
// Full circuit list:  go test -bench=BenchmarkTable2Full -timeout 4h

import (
	"fmt"
	"os"
	"testing"
	"time"

	"gahitec/internal/atpg"
	"gahitec/internal/circuits"
	"gahitec/internal/compact"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/ga"
	"gahitec/internal/hybrid"
	"gahitec/internal/justify"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/randgen"
	"gahitec/internal/sim"
	"gahitec/internal/simgen"
	"gahitec/internal/testgen"

	"math/rand"
)

// benchScale compresses the paper's per-fault wall-clock limits so the whole
// suite regenerates in minutes (1 s -> 3 ms).
const benchScale = 0.003

// seqLenFor mirrors the paper's sequence-length policy (Table II notes).
func seqLenFor(c *netlist.Circuit) int {
	switch c.Name {
	case "s5378", "s35932":
		return c.SeqDepth() / 2
	case "am2910", "div", "mult", "pcont2":
		return 48
	}
	return 8 * c.SeqDepth()
}

// runBoth runs GA-HITEC and HITEC on one circuit and reports the paper's
// Det/Vec/Unt columns as benchmark metrics.
func runBoth(b *testing.B, name string, scale float64) {
	c, err := circuits.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapse(c)
	for i := 0; i < b.N; i++ {
		gaCfg := hybrid.GAHITECConfig(seqLenFor(c), scale)
		gaCfg.Seed = 1
		gaRes := hybrid.Run(c, faults, gaCfg)

		htCfg := hybrid.HITECConfig(3, scale)
		htCfg.Seed = 1
		htRes := hybrid.Run(c, faults, htCfg)

		gaLast := gaRes.Passes[len(gaRes.Passes)-1]
		htLast := htRes.Passes[len(htRes.Passes)-1]
		b.ReportMetric(float64(len(faults)), "faults")
		b.ReportMetric(float64(gaRes.Passes[0].Detected), "ga_det_p1")
		b.ReportMetric(float64(gaLast.Detected), "ga_det")
		b.ReportMetric(float64(gaLast.Vectors), "ga_vec")
		b.ReportMetric(float64(gaLast.Untestable), "ga_unt")
		b.ReportMetric(float64(htRes.Passes[0].Detected), "ht_det_p1")
		b.ReportMetric(float64(htLast.Detected), "ht_det")
		b.ReportMetric(float64(htLast.Vectors), "ht_vec")
		b.ReportMetric(float64(htLast.Untestable), "ht_unt")
	}
}

// table2Quick is the subset of Table II circuits exercised by the default
// bench run; BenchmarkTable2Full covers every row.
var table2Quick = []string{"s298", "s344", "s349", "s386", "s820", "s832"}

// BenchmarkTable2 regenerates the paper's Table II (GA-HITEC vs HITEC on the
// ISCAS89 suite) on the quick subset.
func BenchmarkTable2(b *testing.B) {
	for _, name := range table2Quick {
		b.Run(name, func(b *testing.B) { runBoth(b, name, benchScale) })
	}
}

// BenchmarkTable2Full covers every Table II circuit, at a smaller time scale
// for the three largest. It takes over an hour, so the default bench run
// skips it; set GAHITEC_FULL_BENCH=1 to include it (or regenerate the same
// data faster with cmd/tables).
func BenchmarkTable2Full(b *testing.B) {
	if os.Getenv("GAHITEC_FULL_BENCH") == "" {
		b.Skip("set GAHITEC_FULL_BENCH=1 to run the full Table II sweep")
	}
	for _, name := range circuits.Table2Names() {
		scale := benchScale
		switch name {
		case "s1423", "s5378", "s35932":
			scale = benchScale / 5
		}
		b.Run(name, func(b *testing.B) { runBoth(b, name, scale) })
	}
}

// BenchmarkTable3 regenerates the paper's Table III (synthesized circuits:
// Am2910, div, mult, pcont2). These have thousands of faults each, so the
// per-fault limits are halved relative to Table II to keep the default run
// in minutes.
func BenchmarkTable3(b *testing.B) {
	for _, name := range circuits.Table3Names {
		b.Run(name, func(b *testing.B) { runBoth(b, name, benchScale/2) })
	}
}

// BenchmarkFig1 exercises the Fig. 1 flow and reports the phase-transition
// counters: excitation/propagation, GA justification, deterministic
// fallback, propagation backtracks.
func BenchmarkFig1(b *testing.B) {
	c, err := circuits.Get("s298")
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapse(c)
	for i := 0; i < b.N; i++ {
		cfg := hybrid.GAHITECConfig(seqLenFor(c), benchScale)
		cfg.Seed = 1
		res := hybrid.Run(c, faults, cfg)
		p := res.Phases
		b.ReportMetric(float64(p.Targeted), "targeted")
		b.ReportMetric(float64(p.ExciteProp), "excite_prop")
		b.ReportMetric(float64(p.GAJustifyCalls), "ga_calls")
		b.ReportMetric(float64(p.GAJustifyFound), "ga_found")
		b.ReportMetric(float64(p.DetJustifyCalls), "det_calls")
		b.ReportMetric(float64(p.DetJustifyFound), "det_found")
		b.ReportMetric(float64(p.PropBacktracks), "prop_backtracks")
		b.ReportMetric(float64(p.IncidentalDetects), "incidental")
	}
}

// justificationProblems harvests real justification problems (required
// states from the deterministic engine) for the ablation studies. Problems
// whose faulty-machine target constrains flip-flops (the case where the
// two-goal fitness weighting actually matters) are preferred; the remainder
// fills up with ordinary problems.
func justificationProblems(b *testing.B, name string, limit int) (*netlist.Circuit, []justify.Request) {
	c, err := circuits.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	e := atpg.NewEngine(c)
	var diverging, plain []justify.Request
	for _, f := range fault.Collapse(c) {
		if len(diverging) >= limit {
			break
		}
		f := f
		r := e.Generate(f, atpg.Limits{MaxFrames: 4 * c.SeqDepth(), MaxBacktracks: 1000})
		if r.Status != atpg.Success || r.RequiredGood.CountKnown() == 0 {
			continue
		}
		req := justify.Request{
			TargetGood:   r.RequiredGood,
			TargetFaulty: r.RequiredFaulty,
			Fault:        &f,
		}
		div := false
		for i := range r.RequiredGood {
			if r.RequiredFaulty[i] != r.RequiredGood[i] {
				div = true
				break
			}
		}
		if div {
			diverging = append(diverging, req)
		} else {
			plain = append(plain, req)
		}
	}
	reqs := diverging
	for _, req := range plain {
		if len(reqs) >= limit {
			break
		}
		reqs = append(reqs, req)
	}
	if len(reqs) == 0 {
		b.Skip("no justification problems harvested")
	}
	return c, reqs
}

// BenchmarkAblationFitnessWeights reproduces the Section IV-A claim: the
// 9/10-1/10 weighting of good- vs faulty-machine matches outperforms equal
// 1/2-1/2 weights.
func BenchmarkAblationFitnessWeights(b *testing.B) {
	for _, w := range []float64{0.9, 0.5, 0.1} {
		b.Run(fmt.Sprintf("w=%.1f", w), func(b *testing.B) {
			c, reqs := justificationProblems(b, "s298", 40)
			for i := 0; i < b.N; i++ {
				found := 0
				for k, req := range reqs {
					res := justify.GA(c, req, justify.Options{
						Population: 64, Generations: 8,
						SeqLen: 2 * c.SeqDepth(), WeightGood: w,
						Seed: int64(1000 + k),
					})
					if res.Found {
						found++
					}
				}
				b.ReportMetric(float64(found), "justified")
				b.ReportMetric(float64(len(reqs)), "problems")
			}
		})
	}
}

// BenchmarkAblationGA compares the paper's GA configuration (tournament
// selection without replacement, uniform crossover, non-overlapping
// generations) against the alternatives discussed in Sections II and IV-B.
func BenchmarkAblationGA(b *testing.B) {
	type variant struct {
		name        string
		sel         ga.Selection
		cross       ga.Crossover
		overlapping bool
	}
	variants := []variant{
		{"paper_tournament_uniform", ga.TournamentNoReplacement, ga.Uniform, false},
		{"proportional_selection", ga.Proportional, ga.Uniform, false},
		{"onepoint_crossover", ga.TournamentNoReplacement, ga.OnePoint, false},
		{"overlapping_generations", ga.TournamentNoReplacement, ga.Uniform, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			c, reqs := justificationProblems(b, "s298", 40)
			for i := 0; i < b.N; i++ {
				found := 0
				for k, req := range reqs {
					res := justify.GA(c, req, justify.Options{
						Population: 64, Generations: 8,
						SeqLen:    2 * c.SeqDepth(),
						Seed:      int64(2000 + k),
						Selection: v.sel, Crossover: v.cross, Overlapping: v.overlapping,
					})
					if res.Found {
						found++
					}
				}
				b.ReportMetric(float64(found), "justified")
				b.ReportMetric(float64(len(reqs)), "problems")
			}
		})
	}
}

// BenchmarkAblationPreprocess quantifies the speedup the paper's conclusion
// predicts from filtering untestable faults before the GA passes. s386 is
// the circuit the paper calls out ("GA-HITEC wastes time targeting
// untestable faults in the first two passes, a result especially apparent
// for circuit s386").
func BenchmarkAblationPreprocess(b *testing.B) {
	for _, pre := range []bool{false, true} {
		name := "off"
		if pre {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			c, err := circuits.Get("s386")
			if err != nil {
				b.Fatal(err)
			}
			faults := fault.Collapse(c)
			for i := 0; i < b.N; i++ {
				// A larger time scale than the other benches: the screen's
				// cost is constant while the GA-pass time it saves grows
				// with the per-fault limits, which is exactly the paper's
				// argument for preprocessing.
				cfg := hybrid.GAHITECConfig(seqLenFor(c), 0.01)
				cfg.Seed = 1
				cfg.PreprocessUntestable = pre
				res := hybrid.Run(c, faults, cfg)
				last := res.Passes[len(res.Passes)-1]
				b.ReportMetric(float64(last.Detected), "det")
				b.ReportMetric(float64(last.Untestable), "unt")
				b.ReportMetric(float64(res.Phases.Preprocessed), "prefiltered")
				b.ReportMetric(last.Elapsed.Seconds(), "total_seconds")
			}
		})
	}
}

// BenchmarkAblationDualJustify compares fault-aware (nine-valued) against
// fault-free deterministic justification: the fault-aware variant should
// have no more fault-simulator rejections.
func BenchmarkAblationDualJustify(b *testing.B) {
	for _, ff := range []bool{false, true} {
		name := "dual"
		if ff {
			name = "faultfree"
		}
		b.Run(name, func(b *testing.B) {
			c, err := circuits.Get("s344")
			if err != nil {
				b.Fatal(err)
			}
			faults := fault.Collapse(c)
			for i := 0; i < b.N; i++ {
				cfg := hybrid.HITECConfig(2, benchScale)
				cfg.Seed = 1
				cfg.FaultFreeJustify = ff
				res := hybrid.Run(c, faults, cfg)
				last := res.Passes[len(res.Passes)-1]
				b.ReportMetric(float64(last.Detected), "det")
				b.ReportMetric(float64(res.Phases.VerifyFailures), "verify_fail")
				b.ReportMetric(float64(res.Phases.DetJustifyFound), "just_found")
			}
		})
	}
}

// BenchmarkCompaction measures static test-set compaction on a GA-HITEC
// test set: sequences and vectors before/after at unchanged coverage.
func BenchmarkCompaction(b *testing.B) {
	c, err := circuits.Get("s298")
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapse(c)
	cfg := hybrid.GAHITECConfig(seqLenFor(c), benchScale)
	cfg.Seed = 1
	cfg.Passes = cfg.Passes[:2]
	res := hybrid.Run(c, faults, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := compact.Run(c, faults, res.TestSet)
		b.ReportMetric(float64(st.SequencesBefore), "seq_before")
		b.ReportMetric(float64(st.SequencesAfter), "seq_after")
		b.ReportMetric(float64(st.VectorsBefore), "vec_before")
		b.ReportMetric(float64(st.VectorsAfter), "vec_after")
		b.ReportMetric(float64(st.Detected), "det")
	}
}

// BenchmarkAblationScoapGuide compares SCOAP-guided backtracing (the
// testability heuristic HITEC-generation tools used) against naive
// first-X-input backtracing: successes and total backtracks over the whole
// fault list.
func BenchmarkAblationScoapGuide(b *testing.B) {
	for _, guided := range []bool{true, false} {
		name := "guided"
		if !guided {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			c, err := circuits.Get("s832")
			if err != nil {
				b.Fatal(err)
			}
			faults := fault.Collapse(c)
			for i := 0; i < b.N; i++ {
				e := atpg.NewEngine(c)
				e.SetGuided(guided)
				succ, backtracks := 0, 0
				for _, f := range faults {
					r := e.Generate(f, atpg.Limits{MaxFrames: 16, MaxBacktracks: 300})
					if r.Status == atpg.Success {
						succ++
					}
					backtracks += r.Backtracks
				}
				b.ReportMetric(float64(succ), "generated")
				b.ReportMetric(float64(backtracks), "backtracks")
			}
		})
	}
}

// BenchmarkGeneratorComparison reproduces the paper's introductory claim:
// "The simulation-based approach is particularly well suited for
// data-dominant circuits, while deterministic test generators are more
// effective for control-dominant circuits" — and GA-HITEC combines both.
// Four generators run on one data-dominant (mult) and one control-dominant
// (s386-class) circuit: GA-HITEC, HITEC, the purely simulation-based GA
// generator (GATEST-style, refs 17-18), and the Saab-style alternating
// hybrid (ref 19).
func BenchmarkGeneratorComparison(b *testing.B) {
	for _, name := range []string{"mult", "s386"} {
		b.Run(name, func(b *testing.B) {
			c, err := circuits.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			faults := fault.Collapse(c)
			scale := benchScale / 2 // these circuits have thousands of faults
			for i := 0; i < b.N; i++ {
				gaCfg := hybrid.GAHITECConfig(seqLenFor(c), scale)
				gaCfg.Seed = 1
				gaRes := hybrid.Run(c, faults, gaCfg)

				htCfg := hybrid.HITECConfig(3, scale)
				htCfg.Seed = 1
				htRes := hybrid.Run(c, faults, htCfg)

				simRes := simgen.Run(c, faults, simgen.Options{Seed: 1, MaxRounds: 120})

				altRes := hybrid.RunAlternating(c, faults, hybrid.AlternatingConfig{
					Sim:             simgen.Options{MaxRounds: 120},
					DetTimePerFault: 100 * time.Millisecond,
					Seed:            1,
				})

				wrRes := randgen.Run(c, faults, randgen.Options{Seed: 1, Weighted: true})

				b.ReportMetric(float64(len(faults)), "faults")
				b.ReportMetric(float64(gaRes.Passes[len(gaRes.Passes)-1].Detected), "gahitec_det")
				b.ReportMetric(float64(htRes.Passes[len(htRes.Passes)-1].Detected), "hitec_det")
				b.ReportMetric(float64(simRes.Detected), "simgen_det")
				b.ReportMetric(float64(altRes.Detected), "alternating_det")
				b.ReportMetric(float64(wrRes.Detected), "wrandom_det")
			}
		})
	}
}

// BenchmarkFaultSimThroughput measures the bit-parallel fault simulator in
// fault-vector evaluations per second (the PROOFS-style engine both the GA
// fitness function and the fault-dropping driver depend on).
func BenchmarkFaultSimThroughput(b *testing.B) {
	c, err := circuits.Get("s1423")
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapse(c)
	r := rand.New(rand.NewSource(1))
	seq := testgen.RandomSequence(r, 32, len(c.PIs), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := faultsim.New(c, faults)
		fs.ApplySequence(seq)
	}
	b.ReportMetric(float64(len(faults)*32*b.N)/b.Elapsed().Seconds(), "faultvec/s")
}

// BenchmarkPatternSimThroughput measures the 64-lane logic simulator in
// lane-vector evaluations per second.
func BenchmarkPatternSimThroughput(b *testing.B) {
	c, err := circuits.Get("s1423")
	if err != nil {
		b.Fatal(err)
	}
	ps := sim.NewPatternSim(c)
	r := rand.New(rand.NewSource(2))
	in := make([]logic.Word, len(c.PIs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range in {
			in[j] = logic.Word{Ones: r.Uint64(), Zeros: 0}
			in[j].Zeros = ^in[j].Ones
		}
		ps.Step(in)
	}
	b.ReportMetric(float64(logic.Lanes*b.N)/b.Elapsed().Seconds(), "lanevec/s")
}

// BenchmarkDeterministicATPG measures the PODEM engine: faults targeted per
// second on the s344 stand-in with generous limits.
func BenchmarkDeterministicATPG(b *testing.B) {
	c, err := circuits.Get("s344")
	if err != nil {
		b.Fatal(err)
	}
	e := atpg.NewEngine(c)
	faults := fault.Collapse(c)
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		f := faults[i%len(faults)]
		e.Generate(f, atpg.Limits{MaxFrames: 24, MaxBacktracks: 500})
		done++
	}
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "faults/s")
}

// BenchmarkParallelWorkers measures the fault loop at four workers against
// one worker on one Table II circuit. With work-bounded budgets the outputs
// are bit-identical by construction (internal/hybrid/parallel_test.go); this
// benchmark uses the paper's wall-clock budgets, so its legs may diverge in
// vectors — det/vec are reported to make that visible. Note the committed
// BENCH snapshot comes from a single-CPU container: the ~3x it records at
// workers=4 is budget overlap (concurrent searches share the CPU but their
// per-fault wall-clock budgets elapse together), not parallel compute; the
// 4-vCPU CI runners measure the real thing.
func BenchmarkParallelWorkers(b *testing.B) {
	c, err := circuits.Get("s298")
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapse(c)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := hybrid.GAHITECConfig(seqLenFor(c), benchScale)
				cfg.Seed = 1
				cfg.Workers = workers
				res := hybrid.Run(c, faults, cfg)
				last := res.Passes[len(res.Passes)-1]
				b.ReportMetric(float64(last.Detected), "det")
				b.ReportMetric(float64(last.Vectors), "vec")
			}
		})
	}
}
