package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gahitec/internal/circuits"
	"gahitec/internal/fault"
	"gahitec/internal/hybrid"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
)

// workScale multiplies the paper's per-fault wall-clock limits (1 s, 10 s,
// 100 s) so that none of them can bind: every search ends on its
// population, generation, sequence-length or backtrack cap instead.
const workScale = 1000

// engineSeed drives the engines' random streams. It is fixed, so the
// engine workloads' outputs are the same in every run; the --seed argument
// drives the random sequences of the untestability check instead.
const engineSeed = 1

// gaTable2Config is GA-HITEC passes 1-2 of Table I with the cmd/atpg
// default base sequence length (8x sequential depth).
func gaTable2Config(c *netlist.Circuit) hybrid.Config {
	cfg := hybrid.GAHITECConfig(8*c.SeqDepth(), workScale)
	cfg.Passes = cfg.Passes[:2]
	cfg.Seed = engineSeed
	cfg.Workers = 1
	return cfg
}

// hitecPass1Config is HITEC pass 1: deterministic justification, 1,000
// backtracks.
func hitecPass1Config(*netlist.Circuit) hybrid.Config {
	cfg := hybrid.HITECConfig(1, workScale)
	cfg.Seed = engineSeed
	cfg.Workers = 1
	return cfg
}

// circuitRun is one engine operation: a full run on one circuit.
type circuitRun struct {
	c      *netlist.Circuit
	faults []fault.Fault
	cfg    hybrid.Config
	first  *hybrid.Result // the first round's result, checked against the reference
}

type engineWorkload struct {
	runs []*circuitRun
	seed int64
}

func setupEngine(seed int64, names []string, config func(*netlist.Circuit) hybrid.Config) (workload, error) {
	w := &engineWorkload{seed: seed}
	for _, name := range names {
		c, err := circuits.Get(name)
		if err != nil {
			return nil, err
		}
		w.runs = append(w.runs, &circuitRun{c: c, faults: fault.Collapse(c), cfg: config(c)})
	}
	return w, nil
}

func setupGATable2(seed int64) (workload, error) {
	return setupEngine(seed, []string{"s298", "s344"}, gaTable2Config)
}

func setupHITECAm2910(seed int64) (workload, error) {
	return setupEngine(seed, []string{"am2910"}, hitecPass1Config)
}

func (w *engineWorkload) close() {}

// engineRun is one circuit run of a round, kept for finish.
type engineRun struct {
	res          *hybrid.Result
	rec          *obs.Recorder // nil untraced
	ndj          *bytes.Buffer // the recorder's NDJSON stream
	wallS, busyS float64       // wall time, and wall time less host steal
}

func (w *engineWorkload) round(traced bool) (outcome, error) {
	var out outcome
	var runs []engineRun
	for _, r := range w.runs {
		cfg := r.cfg
		var er engineRun
		if traced {
			er.ndj = &bytes.Buffer{}
			er.rec = obs.New(er.ndj)
			cfg.Obs = er.rec
		}
		clk := startClock()
		er.res = hybrid.Run(r.c, r.faults, cfg)
		er.wallS, er.busyS = clk.elapsed()
		runs = append(runs, er)
	}
	out.raw = runs
	return out, nil
}

func (w *engineWorkload) finish(out *outcome) error {
	runs := out.raw.([]engineRun)
	wall := 0.0
	for i, er := range runs {
		r, res := w.runs[i], er.res
		out.ops++
		out.jobMS = append(out.jobMS, er.busyS*1000)
		if err := w.check(r, res); err != nil {
			out.failed++
			reportFailure(r.c.Name, err)
		}
		if len(res.Passes) > 0 {
			out.detected += res.Passes[len(res.Passes)-1].Detected
		}
		out.vectors += len(flatten(res.TestSet))
		out.untestable += len(res.Untestable)
		if er.rec != nil {
			if out.layers == nil {
				out.layers = map[string]float64{}
			}
			if err := addEngineLayers(out.layers, er.rec.MetricsSnapshot(), er.ndj.Bytes()); err != nil {
				return err
			}
			wall += er.wallS
		}
	}
	if out.layers != nil {
		out.layers["trace.accounted_pct"] = 100 * engineAccounted(out.layers) / wall
	}
	return nil
}

// check verifies a run's result: the first round's against the reference
// simulator, later rounds' for equality with the first.
func (w *engineWorkload) check(r *circuitRun, res *hybrid.Result) error {
	if res.Interrupted || len(res.Passes) != len(r.cfg.Passes) {
		return fmt.Errorf("run did not complete its %d passes", len(r.cfg.Passes))
	}
	if r.first == nil {
		r.first = res
		ref, err := newRefSim(r.c)
		if err != nil {
			return err
		}
		return checkEngineResult(ref, r.faults, res, w.seed)
	}
	return sameResult(r.first, res)
}

func reportFailure(what string, err error) {
	fmt.Printf("check failed: %s: %v\n", what, err)
}

// addEngineLayers folds one traced engine run into the per-layer values.
// Phase times and span counts come from the recorder's metrics; GA
// evaluations are summed from the ga_justify span attributes of the NDJSON
// stream.
func addEngineLayers(l map[string]float64, m *obs.Metrics, ndjson []byte) error {
	sec := func(phase string) float64 { return float64(m.PhaseNS[phase]) / 1e9 }
	l["justify.ga_s"] += sec("ga_justify")
	l["justify.ga_calls"] += float64(m.Spans["ga_justify"])
	l["justify.ga_found"] += float64(m.Counters["ga_justify:found"])
	l["atpg.excite_s"] += sec("excite_prop")
	l["atpg.excite_calls"] += float64(m.Spans["excite_prop"])
	l["atpg.excite_aborted"] += float64(m.Counters["excite_prop:aborted"])
	l["atpg.justify_s"] += sec("det_justify")
	l["atpg.justify_calls"] += float64(m.Spans["det_justify"])
	l["atpg.justify_found"] += float64(m.Counters["det_justify:found"])
	if h := m.Histograms["backtracks"]; h != nil {
		l["atpg.backtracks"] += h.Sum
	}
	l["faultsim.grade_s"] += sec("fault_sim")
	l["faultsim.grade_calls"] += float64(m.Spans["fault_sim"])
	l["faultsim.verify_s"] += sec("verify")
	l["hybrid.targeted"] += float64(m.Spans["target"])
	children := sec("excite_prop") + sec("ga_justify") + sec("det_justify") + sec("verify") + sec("fault_sim")
	l["hybrid.self_s"] += sec("target") - children
	evals, err := gaEvaluations(ndjson)
	l["justify.ga_evaluations"] += evals
	return err
}

// engineAccounted sums the disjoint per-layer times of an engine run.
func engineAccounted(l map[string]float64) float64 {
	return l["justify.ga_s"] + l["atpg.excite_s"] + l["atpg.justify_s"] +
		l["faultsim.grade_s"] + l["faultsim.verify_s"] + l["hybrid.self_s"]
}

// gaEvaluations sums the "evaluations" attribute of every ga_justify span in
// an NDJSON trace.
func gaEvaluations(ndjson []byte) (float64, error) {
	total := 0.0
	for _, line := range bytes.Split(ndjson, []byte("\n")) {
		if len(line) == 0 || !bytes.Contains(line, []byte(`"ga_justify"`)) {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return 0, fmt.Errorf("trace line: %w", err)
		}
		if ev.Ev == "span" && ev.Phase == "ga_justify" {
			total += ev.Attrs["evaluations"]
		}
	}
	return total, nil
}
