package faultsim

import (
	"math/bits"

	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/sim"
)

// DetectsFrom simulates seq on the good machine (starting from goodState)
// and on the f-faulty machine (starting from faultyState) and reports
// whether the fault is detected, along with the index of the first detecting
// vector. Either state may be nil for all-unknown. This is the single-fault
// oracle the test generator uses to confirm every candidate test before
// counting it.
func DetectsFrom(c *netlist.Circuit, f fault.Fault, goodState, faultyState logic.Vector, seq []logic.Vector) (bool, int) {
	good := sim.NewSerial(c)
	if goodState != nil {
		good.SetState(goodState)
	}
	bad := sim.NewSerial(c)
	bad.InjectFault(f)
	if faultyState != nil {
		bad.SetState(faultyState)
	}
	for i, in := range seq {
		g := good.Step(in)
		b := bad.Step(in)
		for o := range g {
			if g[o].IsKnown() && b[o].IsKnown() && g[o] != b[o] {
				return true, i
			}
		}
	}
	return false, -1
}

// Detects is DetectsFrom with both machines starting all-unknown.
func Detects(c *netlist.Circuit, f fault.Fault, seq []logic.Vector) (bool, int) {
	return DetectsFrom(c, f, nil, nil, seq)
}

// Observation is one failing measurement: test vector index and primary
// output index where the faulty machine's binary value contradicts the good
// machine's.
type Observation struct {
	Vector int
	PO     int
}

// Signatures fault-simulates the whole sequence for every fault (machines
// starting all-unknown) and returns each fault's complete failure signature
// — every failing (vector, PO) observation, not just the first. This is the
// raw material for dictionary-based fault diagnosis.
func Signatures(c *netlist.Circuit, faults []fault.Fault, seq []logic.Vector) [][]Observation {
	out := make([][]Observation, len(faults))
	good := sim.NewSerial(c)
	goodOut := make([]logic.Vector, len(seq))
	for i, in := range seq {
		goodOut[i] = good.Step(in)
	}
	b := newBatch(c)
	for base := 0; base < len(faults); base += logic.Lanes {
		end := min(base+logic.Lanes, len(faults))
		b.load(faults[base:end])
		for vi, in := range seq {
			b.settle(in)
			for poi, po := range c.POs {
				g := goodOut[vi][poi]
				if !g.IsKnown() {
					continue
				}
				diff := logic.DiffMask(logic.WordAll(g), b.val[po])
				for diff != 0 {
					l := bits.TrailingZeros64(diff)
					diff &^= 1 << uint(l)
					if base+l < end {
						out[base+l] = append(out[base+l], Observation{Vector: vi, PO: poi})
					}
				}
			}
			b.clock()
		}
	}
	return out
}
