// Package justify implements state justification for the hybrid test
// generator: the genetic-algorithm search of the paper's Section IV (the
// core contribution) plus a thin wrapper around the deterministic
// reverse-time-processing fallback in package atpg.
//
// Candidate justification sequences are binary strings evolved by a GA.
// Fitness is evaluated with the 64-lane bit-parallel three-valued simulator,
// good and faulty machines simulated together (PROOFS-style fault
// injection):
//
//	fitness = w · (#matching flip-flops, good machine)
//	        + (1-w) · (#matching flip-flops, faulty machine)
//
// with w = 9/10 by default. A flip-flop matches when the target requires no
// particular value or the values agree. The state is checked after every
// vector, so a successful sequence may be shorter than the genome.
package justify

import (
	"context"

	"gahitec/internal/fault"
	"gahitec/internal/ga"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/sim"
)

// Request describes one state-justification problem.
type Request struct {
	// TargetGood is the required flip-flop cube in the good machine.
	TargetGood logic.Vector
	// TargetFaulty is the required cube in the faulty machine; it is
	// ignored when Fault is nil.
	TargetFaulty logic.Vector
	// Fault, if non-nil, is injected into the faulty machine. The faulty
	// machine always starts from the all-unknown state (the paper avoids
	// resimulating the full test set on the faulty circuit).
	Fault *fault.Fault
	// StartGood is the good machine's current state (nil = all unknown).
	StartGood logic.Vector
}

// Options configures the GA search. Zero values take the paper's defaults.
type Options struct {
	Population  int     // default 64; multiples of 64 use full lanes
	Generations int     // default 4
	SeqLen      int     // genome length in vectors; default 2×seq depth
	WeightGood  float64 // default 0.9
	Seed        int64

	Selection   ga.Selection
	Crossover   ga.Crossover
	Overlapping bool
	Mutation    float64 // default 1/64

	// Constraints, if non-nil, restricts the generated input sequences
	// (pinned pins, one-hot groups, forbidden vectors); see Constraints.
	Constraints *Constraints

	// Hooks, if non-nil, is the fault-injection harness consulted at entry
	// (site "ga"); test machinery.
	Hooks *runctl.Hooks

	// Pulse, if non-nil, is beaten once per GA generation (inside the stop
	// check), so an external watchdog sees a generation-granular heartbeat.
	Pulse *runctl.Pulse

	// Obs, if non-nil, is the telemetry recorder: the GA emits one
	// "generation" trajectory point per generation (best fitness plus the
	// matched-flip-flop counts behind it) and, on success, feeds the
	// generations-to-solution and solution-length histograms. ObsFault and
	// ObsPass scope the emitted events; both may be zero.
	Obs      *obs.Recorder
	ObsFault string
	ObsPass  int
}

func (o *Options) setDefaults(c *netlist.Circuit) {
	if o.Population <= 0 {
		o.Population = 64
	}
	if o.Population%2 != 0 {
		o.Population++
	}
	if o.Generations <= 0 {
		o.Generations = 4
	}
	if o.SeqLen <= 0 {
		o.SeqLen = 2 * c.SeqDepth()
		if o.SeqLen < 2 {
			o.SeqLen = 2
		}
	}
	if o.WeightGood == 0 {
		o.WeightGood = 0.9
	}
}

// Result reports a GA justification outcome.
type Result struct {
	Found       bool
	Sequence    []logic.Vector // justifying prefix (binary vectors)
	BestFitness float64
	Generations int
	Evaluations int
}

// NeedsJustification reports whether the request is already satisfied by
// the machines' starting states, per the paper's pre-check: the desired good
// state is compared to the current good state and the desired faulty state
// to the all-unknown (or stuck-forced) faulty start state.
func NeedsJustification(c *netlist.Circuit, req Request) bool {
	start := req.StartGood
	if start == nil {
		start = logic.NewVector(len(c.DFFs))
	}
	if !req.TargetGood.Covers(start) {
		return true
	}
	if req.Fault != nil {
		if !req.TargetFaulty.Covers(faultyStart(c, *req.Fault)) {
			return true
		}
	}
	return false
}

// faultyStart is the faulty machine's initial flip-flop state: all unknown,
// with a stuck flip-flop stem held at its stuck value.
func faultyStart(c *netlist.Circuit, f fault.Fault) logic.Vector {
	st := logic.NewVector(len(c.DFFs))
	if f.IsStem() {
		if di := c.DFFIndex(f.Node); di >= 0 {
			st[di] = f.Stuck
		}
	}
	return st
}

// GA runs the genetic search for a justification sequence.
func GA(c *netlist.Circuit, req Request, opt Options) Result {
	return GACtx(context.Background(), c, req, opt)
}

// GACtx is GA bounded by ctx: an already-cancelled (or expired) context
// returns not-found immediately without evaluating anything, and
// cancellation mid-search stops the GA at the next generation boundary.
func GACtx(ctx context.Context, c *netlist.Circuit, req Request, opt Options) Result {
	opt.setDefaults(c)
	expired := opt.Hooks.Enter("ga") == runctl.ActExpire
	if expired || ctx.Err() != nil {
		return Result{}
	}
	if !NeedsJustification(c, req) {
		return Result{Found: true}
	}

	ev := &evaluator{
		c:          c,
		req:        req,
		opt:        opt,
		goodSim:    sim.NewPatternSim(c),
		solvedLane: -1,
		trackGen:   opt.Obs != nil,
	}
	if req.Fault != nil {
		ev.faultSim = sim.NewPatternSim(c)
		ev.faultSim.InjectFault(*req.Fault)
	}

	cfg := ga.Config{
		PopulationSize: opt.Population,
		Generations:    opt.Generations,
		GenomeBits:     opt.SeqLen * len(c.PIs),
		MutationProb:   opt.Mutation,
		Selection:      opt.Selection,
		Crossover:      opt.Crossover,
		Overlapping:    opt.Overlapping,
		Seed:           opt.Seed,
		Stop: func() bool {
			opt.Pulse.Beat()
			return ctx.Err() != nil
		},
	}
	if opt.Obs != nil {
		cfg.Observer = func(gs ga.GenerationStats) {
			opt.Obs.Point("ga_justify", "generation", opt.ObsFault, opt.ObsPass, obs.Attrs{
				"gen":          float64(gs.Generation),
				"best":         gs.BestFitness,
				"best_ever":    gs.BestEver,
				"good_match":   float64(ev.genBestGM),
				"faulty_match": float64(ev.genBestFM),
				"evaluations":  float64(gs.Evaluations),
			})
		}
	}
	res, err := ga.Run(cfg, ev.evaluate)
	if err != nil {
		// Config errors are programming errors here; surface as not found.
		return Result{}
	}
	out := Result{
		BestFitness: res.Best.Fitness,
		Generations: res.Generations,
		Evaluations: res.Evaluations,
	}
	if res.Solved {
		out.Found = true
		seq := genesToVectors(res.Best.Genes, len(c.PIs))
		repairAll(opt.Constraints, seq)
		out.Sequence = seq[:ev.solvedPrefix]
		opt.Obs.Observe("ga_generations", float64(res.Generations))
	}
	return out
}

// repairAll applies the constraint repair to every vector.
func repairAll(cs *Constraints, seq []logic.Vector) {
	if cs.Empty() {
		return
	}
	for _, v := range seq {
		cs.Repair(v)
	}
}

// evaluator carries the simulators across generations.
type evaluator struct {
	c        *netlist.Circuit
	req      Request
	opt      Options
	goodSim  *sim.PatternSim
	faultSim *sim.PatternSim

	solvedLane   int // within-batch lane of the solving individual
	solvedPrefix int // vectors needed by the solving individual

	// Per-generation convergence tracking for the telemetry trajectory:
	// the matched-flip-flop counts behind the generation's best fitness.
	trackGen   bool
	genBestFit float64
	genBestGM  int // good-machine flip-flops matched by the generation's best
	genBestFM  int // faulty-machine flip-flops matched by the generation's best
}

// evaluate scores the whole population, 64 individuals per simulator pass.
func (ev *evaluator) evaluate(pop []ga.Individual) ga.EvalResult {
	nPI := len(ev.c.PIs)
	solved := -1
	if ev.trackGen {
		ev.genBestFit, ev.genBestGM, ev.genBestFM = -1, 0, 0
	}
	for base := 0; base < len(pop); base += logic.Lanes {
		end := base + logic.Lanes
		if end > len(pop) {
			end = len(pop)
		}
		if s := ev.evaluateBatch(pop[base:end], nPI); s >= 0 {
			solved = base + s
			break // the GA stops on a solve; later batches are irrelevant
		}
	}
	return ga.EvalResult{Solved: solved}
}

// evaluateBatch simulates up to 64 individuals and returns the index (within
// the batch) of a solving individual, or -1.
func (ev *evaluator) evaluateBatch(batch []ga.Individual, nPI int) int {
	n := len(batch)
	start := ev.req.StartGood
	if start == nil {
		start = logic.NewVector(len(ev.c.DFFs))
	}
	ev.goodSim.Reset()
	ev.goodSim.SetStateBroadcast(start)
	if ev.faultSim != nil {
		ev.faultSim.Reset() // all-X faulty start, stuck stems held
	}

	solvedLane, solvedPrefix := -1, 0
	laneMask := ^uint64(0)
	if n < logic.Lanes {
		laneMask = (uint64(1) << uint(n)) - 1
	}

	// With constraints active, decode and repair every sequence up front so
	// the simulated stimuli are exactly what a solution would return.
	cs := ev.opt.Constraints
	var repaired [][]logic.Vector
	if !cs.Empty() {
		repaired = make([][]logic.Vector, n)
		for l := 0; l < n; l++ {
			repaired[l] = genesToVectors(batch[l].Genes, nPI)
			repairAll(cs, repaired[l])
		}
	}

	in := make([]logic.Word, nPI)
	for t := 0; t < ev.opt.SeqLen; t++ {
		for pi := 0; pi < nPI; pi++ {
			w := logic.WordAllX
			for l := 0; l < n; l++ {
				if repaired != nil {
					w = w.WithLane(l, repaired[l][t][pi])
				} else {
					w = w.WithLane(l, logic.FromBit(uint64(batch[l].Genes[t*nPI+pi])))
				}
			}
			in[pi] = w
		}
		ev.goodSim.Settle(in)
		ev.goodSim.Clock()
		if ev.faultSim != nil {
			ev.faultSim.Settle(in)
			ev.faultSim.Clock()
		}
		if solvedLane >= 0 {
			continue // keep stepping to fill final-state fitness
		}
		match := coverMask(ev.goodSim, ev.req.TargetGood) & laneMask
		if ev.faultSim != nil {
			match &= coverMask(ev.faultSim, ev.req.TargetFaulty)
		}
		for match != 0 {
			l := lowestBit(match)
			match &^= 1 << uint(l)
			// Forbidden-pattern compliance gates acceptance.
			if repaired != nil && !cs.SequenceAllowed(repaired[l][:t+1]) {
				continue
			}
			solvedLane, solvedPrefix = l, t+1
			break
		}
	}

	// Final-state fitness for every individual.
	w := ev.opt.WeightGood
	for l := 0; l < n; l++ {
		gm := ev.req.TargetGood.Matches(ev.goodSim.StateLane(l))
		fm := len(ev.c.DFFs)
		if ev.faultSim != nil {
			fm = ev.req.TargetFaulty.Matches(ev.faultSim.StateLane(l))
		}
		batch[l].Fitness = w*float64(gm) + (1-w)*float64(fm)
		if ev.trackGen && batch[l].Fitness > ev.genBestFit {
			ev.genBestFit, ev.genBestGM, ev.genBestFM = batch[l].Fitness, gm, fm
		}
	}
	if solvedLane >= 0 {
		ev.solvedLane = solvedLane
		ev.solvedPrefix = solvedPrefix
		// Make sure the solver also wins on fitness so ga returns it.
		batch[solvedLane].Fitness = float64(len(ev.c.DFFs)) + 1
	}
	return solvedLane
}

// coverMask returns the mask of lanes whose flip-flop state satisfies every
// required (non-X) bit of the target cube.
func coverMask(ps *sim.PatternSim, target logic.Vector) uint64 {
	dffs := ps.Circuit().DFFs
	m := ^uint64(0)
	for i, v := range target {
		switch v {
		case logic.One:
			m &= ps.NodeWord(dffs[i]).Ones
		case logic.Zero:
			m &= ps.NodeWord(dffs[i]).Zeros
		}
		if m == 0 {
			break
		}
	}
	return m
}

func lowestBit(m uint64) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}

// genesToVectors decodes a genome into a vector sequence.
func genesToVectors(genes []byte, nPI int) []logic.Vector {
	nVec := len(genes) / nPI
	out := make([]logic.Vector, nVec)
	for t := 0; t < nVec; t++ {
		v := make(logic.Vector, nPI)
		for i := 0; i < nPI; i++ {
			v[i] = logic.FromBit(uint64(genes[t*nPI+i]))
		}
		out[t] = v
	}
	return out
}
