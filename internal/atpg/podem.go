package atpg

import (
	"context"

	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/scoap"
)

// deepening returns the geometric frame-count ladder 1, 2, 4, ... capped and
// terminated by max itself. Geometric steps avoid the quadratic waste of
// unit-step iterative deepening while preserving the exhaustion argument: a
// k-frame search subsumes every smaller window.
func deepening(max int) []int {
	var ks []int
	for k := 1; k < max; k *= 2 {
		ks = append(ks, k)
	}
	return append(ks, max)
}

// Engine holds per-circuit precomputation shared by all targets: static
// distances to the primary outputs (D-frontier selection) and SCOAP
// testability measures (backtrace guidance).
type Engine struct {
	c      *netlist.Circuit
	distPO []int32
	guide  *scoap.Measures
	hooks  *runctl.Hooks
	rec    *obs.Recorder
}

// NewEngine returns a deterministic ATPG engine for the circuit, with
// SCOAP-guided backtracing enabled.
func NewEngine(c *netlist.Circuit) *Engine {
	return &Engine{c: c, distPO: poDistances(c), guide: scoap.Compute(c)}
}

// SetHooks installs a fault-injection harness consulted at the entry of
// every Generate/Justify call (sites "generate", "justify", "justify-dual").
// A nil harness is inert; this is test machinery.
func (e *Engine) SetHooks(h *runctl.Hooks) { e.hooks = h }

// SetObs installs the telemetry recorder. Every Generate/Justify call counts
// itself and feeds the backtracks-per-fault histogram on completion. A nil
// recorder is inert.
func (e *Engine) SetObs(r *obs.Recorder) { e.rec = r }

// WithObs returns a view of the engine bound to a different telemetry
// recorder. The view shares the per-circuit precomputation — which is
// immutable after construction, so concurrent searches through separate
// views are safe — and only the recorder differs: the hybrid fault loop
// gives each speculative attempt a view over its own forked recorder, keeping
// discarded attempts out of the committed telemetry.
func (e *Engine) WithObs(r *obs.Recorder) *Engine {
	ne := *e
	ne.rec = r
	return &ne
}

// record charges one completed deterministic search to the telemetry.
func (e *Engine) record(kind string, status Status, backtracks int) {
	if e.rec == nil {
		return
	}
	e.rec.Counter("atpg."+kind, 1)
	e.rec.Counter("atpg."+kind+":"+status.String(), 1)
	e.rec.Observe("backtracks", float64(backtracks))
}

// SetGuided enables or disables SCOAP backtrace guidance (the ablation
// benchmarks compare both).
func (e *Engine) SetGuided(on bool) {
	if on && e.guide == nil {
		e.guide = scoap.Compute(e.c)
	}
	if !on {
		e.guide = nil
	}
}

// newFrames builds a frame model wired to this engine's guidance.
func (e *Engine) newFrames(flt *fault.Fault, k int, ppiFree bool) *frames {
	fr := newFrames(e.c, flt, k, ppiFree)
	fr.guide = e.guide
	return fr
}

// Generate targets one fault: it excites the fault in time frame zero and
// propagates the effect to a primary output across successive time frames,
// using iterative deepening on the frame count. Frame-zero flip-flop values
// are free variables; the assignments they receive become the required state
// that must subsequently be justified (by the GA or deterministically).
func (e *Engine) Generate(f fault.Fault, lim Limits) Result {
	return e.GenerateNthCtx(context.Background(), f, lim, 0)
}

// GenerateCtx is Generate bounded additionally by ctx: cancellation or the
// context deadline aborts the search on the engine's usual check cadence.
func (e *Engine) GenerateCtx(ctx context.Context, f fault.Fault, lim Limits) Result {
	return e.GenerateNthCtx(ctx, f, lim, 0)
}

// GenerateNth skips the first n excitation/propagation solutions and returns
// the (n+1)-th. The hybrid driver uses this to implement the paper's
// backtrack loop: when state justification fails for one required state,
// "backtracks are made in the fault propagation phase, and attempts are made
// to justify the new state."
func (e *Engine) GenerateNth(f fault.Fault, lim Limits, skip int) Result {
	return e.GenerateNthCtx(context.Background(), f, lim, skip)
}

// GenerateNthCtx is GenerateNth bounded additionally by ctx. The context,
// the Limits deadline and the backtrack allowance are folded into one
// runctl.Budget checked on a cheap cadence inside the search.
func (e *Engine) GenerateNthCtx(ctx context.Context, f fault.Fault, lim Limits, skip int) (res Result) {
	defer func() { e.record("generate", res.Status, res.Backtracks) }()
	lim = lim.withDefaults(e.c.SeqDepth())
	budget := runctl.NewBudget(ctx, lim.Deadline, lim.MaxBacktracks).WithPulse(lim.Pulse)
	if e.hooks.Enter("generate") == runctl.ActExpire {
		budget.ForceExpire()
	}
	total := Result{Status: Untestable}
	remaining := skip // shared across deepening so solutions are not re-counted
	for _, k := range deepening(lim.MaxFrames) {
		r, reachedPPO := e.generateK(f, k, budget, &remaining)
		total.Backtracks += r.Backtracks
		total.Frames = k
		switch r.Status {
		case Success:
			r.Backtracks = total.Backtracks
			return r
		case Aborted:
			total.Status = Aborted
			return total
		}
		// Exhausted at k frames. If no branch ever pushed the fault effect
		// into frame k, deeper unrollings cannot succeed either. That proves
		// untestability only when no solutions were skipped on the way.
		if !reachedPPO {
			if remaining < skip {
				total.Status = Aborted // solutions exist, just fewer than asked
			} else {
				total.Status = Untestable
			}
			return total
		}
	}
	// Effects kept crossing the frame bound: inconclusive.
	total.Status = Aborted
	return total
}

// generateK runs one PODEM search over a k-frame unrolling, skipping the
// first `skip` solutions. It returns the result and whether any explored
// branch had a live fault effect at the last frame's pseudo-outputs.
func (e *Engine) generateK(f fault.Fault, k int, budget *runctl.Budget, skip *int) (Result, bool) {
	fr := e.newFrames(&f, k, true)
	fr.imply()

	var stack []decision
	backtracks := 0
	reachedPPO := false

	abort := func() (Result, bool) {
		return Result{Status: Aborted, Backtracks: backtracks, Frames: k}, reachedPPO
	}

	for {
		if budget.Exhausted() {
			return abort()
		}

		mustBacktrack := false
		if poFrame := fr.faultEffectAtPO(); poFrame >= 0 {
			if *skip == 0 {
				return e.success(fr, f, poFrame, backtracks), reachedPPO
			}
			*skip = *skip - 1
			mustBacktrack = true // reject this solution, search for another
		}

		var obj objective
		var st objectiveStatus
		if !mustBacktrack {
			obj, st = fr.nextObjective(e.distPO)
		} else {
			st = objBacktrack
		}
		switch st {
		case objFound:
			d, ok := fr.backtrace(obj)
			if ok {
				stack = append(stack, d)
				fr.assign(d)
				fr.implyFrom(implyFrameOf(d))
				continue
			}
			mustBacktrack = true
		case objNeedMoreFrames:
			reachedPPO = true
			mustBacktrack = true
		case objBacktrack:
			mustBacktrack = true
		}
		if !mustBacktrack {
			continue
		}

		// Backtrack: flip the most recent un-flipped decision.
		flipped := false
		minFrame := k
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if mf := implyFrameOf(*top); mf < minFrame {
				minFrame = mf
			}
			if !top.triedBoth {
				top.triedBoth = true
				top.value = top.value.Not()
				fr.assign(*top)
				backtracks++
				budget.Spend()
				flipped = true
				break
			}
			fr.unassign(*top)
			stack = stack[:len(stack)-1]
		}
		if !flipped {
			return Result{Status: Untestable, Backtracks: backtracks, Frames: k}, reachedPPO
		}
		fr.implyFrom(minFrame)
	}
}

// success assembles the result: propagation vectors up to the detecting
// frame and the required frame-zero state for both machines. The required
// state is first minimized — every pseudo-input assignment whose removal
// still leaves a fault effect at a primary output is relaxed to X — because
// smaller cubes are dramatically easier to justify.
func (e *Engine) success(fr *frames, f fault.Fault, poFrame, backtracks int) Result {
	for di := range fr.ppiA {
		if fr.ppiA[di] == logic.X {
			continue
		}
		save := fr.ppiA[di]
		fr.ppiA[di] = logic.X
		fr.imply()
		if fr.faultEffectAtPO() < 0 {
			fr.ppiA[di] = save
		}
	}
	fr.imply()
	if pf := fr.faultEffectAtPO(); pf >= 0 {
		poFrame = pf
	}

	reqGood := make(logic.Vector, len(e.c.DFFs))
	reqFaulty := make(logic.Vector, len(e.c.DFFs))
	copy(reqGood, fr.ppiA)
	copy(reqFaulty, fr.ppiA)
	// A stem fault on a flip-flop forces its faulty-machine value.
	if f.IsStem() {
		if di := e.c.DFFIndex(f.Node); di >= 0 {
			reqFaulty[di] = f.Stuck
		}
	}
	return Result{
		Status:         Success,
		Vectors:        fr.vectors(poFrame),
		RequiredGood:   reqGood,
		RequiredFaulty: reqFaulty,
		Backtracks:     backtracks,
		Frames:         poFrame + 1,
	}
}
