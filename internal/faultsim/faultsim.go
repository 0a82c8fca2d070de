// Package faultsim implements a PROOFS-style bit-parallel sequential fault
// simulator: up to 64 faulty machines are simulated per pass, one per lane
// of a sim.PatternSim loaded by LoadFaults, against a serially simulated
// good machine. The simulator maintains per-fault flip-flop state across
// calls, so a growing test set can be graded incrementally exactly as the
// hybrid test generator builds it: every new test sequence is applied on
// top of the state left by the previous ones, detected faults are dropped,
// and incidental detections are credited.
//
// A fault is counted as detected when a primary output has a binary value in
// the good machine and the opposite binary value in the faulty machine
// (potential detections through unknowns are not counted, matching HITEC's
// conservative accounting).
package faultsim

import (
	"math/bits"

	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/sim"
)

// SiteWord is the fault-injection site consulted once per (batch, vector)
// evaluation. Arming it with runctl.ActCorrupt flips one lane of one packed
// primary-output word — the smallest possible silent miscompare in the
// bit-parallel engine — so the tests can prove the independent audit
// catches a corrupted detection instead of trusting it.
const SiteWord = "faultsim.word"

// Detection records one detected fault.
type Detection struct {
	Fault  fault.Fault
	Vector int // global index of the detecting vector (0-based)
}

// Simulator grades test sequences against a fault list.
type Simulator struct {
	c *netlist.Circuit

	good *sim.Serial // good-machine reference state

	// remaining is never written in place, so clones share it. Per
	// remaining fault i, fstate[i*len(c.DFFs):] holds its faulty flip-flop
	// state and potential[i] whether it was potentially detected.
	remaining []fault.Fault
	fstate    []logic.V
	potential []bool

	detections []Detection // only appended to, so clones share it
	nVectors   int

	// ps is reloaded for every 64-fault group; it and the per-vector
	// scratch words (PI, flip-flop and PO) are nil until first used.
	ps            *sim.PatternSim
	inW, ffW, poW []logic.Word

	hooks *runctl.Hooks // fault-injection harness; nil when disarmed
	rec   *obs.Recorder // telemetry recorder; nil when disabled
}

// SetHooks installs the fault-injection harness consulted at SiteWord. A nil
// harness is inert.
func (s *Simulator) SetHooks(h *runctl.Hooks) { s.hooks = h }

// SetObs installs the telemetry recorder: every ApplySequence call becomes a
// "fault_sim" grading span with the vectors applied, the faults graded, and
// the newly detected count. A nil recorder is inert.
func (s *Simulator) SetObs(r *obs.Recorder) { s.rec = r }

// New returns a Simulator over the given fault list. All machines start in
// the all-unknown state (stuck flip-flop stems start at their stuck value).
func New(c *netlist.Circuit, faults []fault.Fault) *Simulator {
	return NewFromState(c, faults, nil)
}

// NewFromState is New with the good machine preset to the given flip-flop
// state (nil = all unknown). Faulty machines still start all-unknown — the
// convention the paper's fitness evaluation uses to avoid resimulating the
// full test set on every faulty circuit.
func NewFromState(c *netlist.Circuit, faults []fault.Fault, goodState logic.Vector) *Simulator {
	s := &Simulator{
		c:         c,
		good:      sim.NewSerial(c),
		remaining: append([]fault.Fault(nil), faults...),
		fstate:    make([]logic.V, len(faults)*len(c.DFFs)),
		potential: make([]bool, len(faults)),
	}
	if goodState != nil {
		s.good.SetState(goodState)
	}
	// All-unknown, with stuck flip-flops held.
	for i, f := range s.remaining {
		st := s.faultyState(i)
		for ffi, ff := range c.DFFs {
			st[ffi] = logic.X
			if f.IsStem() && f.Node == ff {
				st[ffi] = f.Stuck
			}
		}
	}
	return s
}

// faultyState returns remaining fault i's flip-flop state, in place.
func (s *Simulator) faultyState(i int) []logic.V {
	n := len(s.c.DFFs)
	return s.fstate[i*n : (i+1)*n]
}

// Clone returns an independent copy of the simulator: advancing either one
// leaves the other's Remaining, Detections, PotentiallyDetected and
// GoodState unchanged. It copies each remaining fault's flip-flop state, so
// a clone costs about |Remaining()| × |DFFs| bytes; the remaining-fault list
// and the detection log are shared until the simulator changes them.
// Clones taken at the 69 sequence boundaries of an am2910 test set (1422
// faults, 62 flip-flops) hold about 2 MB in all. The clone has the same
// hooks and recorder.
func (s *Simulator) Clone() *Simulator {
	cl := *s
	cl.good = sim.NewSerial(s.c)
	cl.good.SetState(s.good.State())
	cl.remaining = s.remaining[:len(s.remaining):len(s.remaining)]
	cl.fstate = append([]logic.V(nil), s.fstate...)
	cl.potential = append([]bool(nil), s.potential...)
	cl.detections = s.detections[:len(s.detections):len(s.detections)]
	cl.ps, cl.inW, cl.ffW, cl.poW = nil, nil, nil, nil
	return &cl
}

// Remaining returns the undetected faults (caller must not modify).
func (s *Simulator) Remaining() []fault.Fault { return s.remaining }

// Detections returns all detections so far. Calls append in the order they
// were made; within one ApplySequence call the detections are ordered by
// 64-fault batch (in Remaining order), then by vector, so their Vector
// indices are not sorted.
func (s *Simulator) Detections() []Detection { return s.detections }

// NumDetected returns the number of faults detected so far.
func (s *Simulator) NumDetected() int { return len(s.detections) }

// NumVectors returns the total number of vectors applied so far.
func (s *Simulator) NumVectors() int { return s.nVectors }

// PotentiallyDetected returns the still-undetected faults that at some point
// produced an unknown faulty value against a known good value at a primary
// output — HITEC's "potential detections", which a tester observing the real
// (binary) machine might or might not catch. They are never counted in
// NumDetected.
func (s *Simulator) PotentiallyDetected() []fault.Fault {
	var out []fault.Fault
	for i, f := range s.remaining {
		if s.potential[i] {
			out = append(out, f)
		}
	}
	return out
}

// GoodState returns the good machine's current flip-flop state.
func (s *Simulator) GoodState() logic.Vector { return s.good.State() }

// ApplySequence applies the vectors to the good machine and to every
// remaining faulty machine, drops faults detected along the way, and returns
// the newly detected faults.
func (s *Simulator) ApplySequence(seq []logic.Vector) []fault.Fault {
	if len(seq) == 0 {
		return nil
	}
	sp := s.rec.StartSpan("fault_sim", "", 0)
	graded := len(s.remaining)
	// Record good PO values and next-states once.
	goodOut := make([]logic.Vector, len(seq))
	for i, in := range seq {
		goodOut[i] = s.good.Step(in)
	}

	if s.ps == nil {
		s.ps = sim.NewPatternSim(s.c)
		s.inW = make([]logic.Word, len(s.c.PIs))
		s.ffW = make([]logic.Word, len(s.c.DFFs))
		s.poW = make([]logic.Word, len(s.c.POs))
	}
	detected := make([]bool, len(s.remaining))
	var newly []fault.Fault
	for base := 0; base < len(s.remaining); base += logic.Lanes {
		end := min(base+logic.Lanes, len(s.remaining))
		s.runBatch(base, end, seq, goodOut, detected, &newly)
	}
	s.nVectors += len(seq)

	// Drop the detected faults: a new remaining list, since clones share
	// the old one; fstate and potential are this simulator's own.
	if len(newly) != 0 {
		keep := make([]fault.Fault, 0, len(s.remaining)-len(newly))
		for i, f := range s.remaining {
			if detected[i] {
				continue
			}
			copy(s.faultyState(len(keep)), s.faultyState(i))
			s.potential[len(keep)] = s.potential[i]
			keep = append(keep, f)
		}
		s.remaining = keep
		s.fstate = s.fstate[:len(keep)*len(s.c.DFFs)]
		s.potential = s.potential[:len(keep)]
	}
	sp.End("graded", obs.Attrs{
		"vectors": float64(len(seq)),
		"faults":  float64(graded),
		"newly":   float64(len(newly)),
	})
	return newly
}

// runBatch simulates faults [base, end) over the sequence.
func (s *Simulator) runBatch(base, end int, seq []logic.Vector, goodOut []logic.Vector, detected []bool, newly *[]fault.Fault) {
	n := end - base
	nFF := len(s.c.DFFs)
	ps := s.ps
	ps.LoadFaults(s.remaining[base:end])

	// Load the per-fault faulty states into the lanes; unused lanes stay X.
	for ffi := range s.ffW {
		var w logic.Word
		for l := 0; l < n; l++ {
			w = w.WithLane(l, s.fstate[(base+l)*nFF+ffi])
		}
		s.ffW[ffi] = w
	}
	ps.SetStateWords(s.ffW)

	live := ^uint64(0) >> uint(logic.Lanes-n) // lanes carrying a fault
	done := uint64(0)                         // lanes already detected
	pot := uint64(0)                          // lanes potentially detected
	for vi, in := range seq {
		ps.Settle(broadcast(s.inW, in))
		for poi, po := range s.c.POs {
			s.poW[poi] = ps.NodeWord(po)
		}
		if s.hooks.Enter(SiteWord) == runctl.ActCorrupt {
			corruptWord(s.poW, n, goodOut[vi], done)
		}
		for poi, w := range s.poW {
			g := goodOut[vi][poi]
			if !g.IsKnown() {
				continue
			}
			diff := logic.DiffMask(logic.WordAll(g), w) &^ done
			for diff != 0 {
				l := bits.TrailingZeros64(diff)
				diff &^= 1 << uint(l)
				done |= 1 << uint(l)
				detected[base+l] = true
				*newly = append(*newly, s.remaining[base+l])
				s.detections = append(s.detections, Detection{
					Fault:  s.remaining[base+l],
					Vector: s.nVectors + vi,
				})
			}
			// Potential detections: faulty value unknown where the good
			// machine drives a binary value.
			pot |= ^w.Defined() &^ done & live
		}
		ps.Clock()
	}
	for l := 0; l < n; l++ {
		if pot&(1<<uint(l)) != 0 {
			s.potential[base+l] = true
		}
	}
	// Save the faulty states back.
	for ffi, ff := range s.c.DFFs {
		w := ps.NodeWord(ff)
		for l := 0; l < n; l++ {
			s.fstate[(base+l)*nFF+ffi] = w.Get(l)
		}
	}
}

// broadcast fills ws (one word per PI) with the vector in every lane, X
// where the vector is short, and returns it.
func broadcast(ws []logic.Word, in logic.Vector) []logic.Word {
	for i := range ws {
		v := logic.X
		if i < len(in) {
			v = in[i]
		}
		ws[i] = logic.WordAll(v)
	}
	return ws
}

// corruptWord simulates the smallest silent packed-evaluation bug: it finds
// the first primary output whose good value is binary and the first live
// lane (< n, not yet detected) that currently agrees with it, and flips that
// lane of the PO word read for the comparison to the complement. The fault
// in that lane is then spuriously "detected" by the comparison loop that
// follows — exactly the class of miscompare the independent audit exists to
// catch. The lane is dropped as detected at once, so no later vector reads
// the simulator's own, unflipped value for it.
func corruptWord(po []logic.Word, n int, good logic.Vector, done uint64) {
	for poi, w := range po {
		g := good[poi]
		if !g.IsKnown() {
			continue
		}
		for l := 0; l < n; l++ {
			if done&(1<<uint(l)) != 0 {
				continue
			}
			if w.Get(l) == g {
				po[poi] = w.WithLane(l, g.Not())
				return
			}
		}
	}
}
