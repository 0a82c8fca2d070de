package main

import (
	"fmt"

	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
)

// refsim.go is the benchmark's reference: a three-valued serial fault
// simulator that reads only the structure of a netlist.Circuit (node kinds,
// fanins, PIs, POs, flip-flops) and shares no code with the program's
// simulators (sim, faultsim, audit). It follows the semantics faultsim
// documents:
//
//   - every machine, good and faulty, starts with all flip-flops unknown;
//   - a stuck flip-flop stem holds its stuck value from the start;
//   - the sequences of a test set are applied back to back;
//   - a fault is detected when a primary output is binary in both machines
//     and the two values differ.

// tv is a three-valued logic value.
type tv uint8

const (
	t0 tv = iota
	t1
	tx
)

func toTV(v logic.V) tv {
	switch v {
	case logic.Zero:
		return t0
	case logic.One:
		return t1
	}
	return tx
}

func (v tv) not() tv {
	switch v {
	case t0:
		return t1
	case t1:
		return t0
	}
	return tx
}

// refSim holds the circuit structure in flat slices, with an evaluation
// order of its own derivation.
type refSim struct {
	c     *netlist.Circuit
	kind  []netlist.Kind
	fanin [][]netlist.ID
	order []netlist.ID // combinational gates, every gate after its fanins
	ffOf  []int        // node -> flip-flop index, -1 when not a flip-flop
}

func newRefSim(c *netlist.Circuit) (*refSim, error) {
	n := len(c.Nodes)
	r := &refSim{c: c, kind: make([]netlist.Kind, n), fanin: make([][]netlist.ID, n), ffOf: make([]int, n)}
	for i, nd := range c.Nodes {
		r.kind[i] = nd.Kind
		r.fanin[i] = nd.Fanin
		r.ffOf[i] = -1
	}
	for i, ff := range c.DFFs {
		r.ffOf[ff] = i
	}
	// Depth-first topological order over gate fanins; flip-flops, inputs
	// and constants are sources.
	mark := make([]uint8, n)
	var visit func(id netlist.ID) error
	visit = func(id netlist.ID) error {
		if !r.kind[id].IsGate() || mark[id] == 2 {
			return nil
		}
		if mark[id] == 1 {
			return fmt.Errorf("refsim: combinational loop through %s", c.Nodes[id].Name)
		}
		mark[id] = 1
		for _, f := range r.fanin[id] {
			if err := visit(f); err != nil {
				return err
			}
		}
		mark[id] = 2
		r.order = append(r.order, id)
		return nil
	}
	for i := 0; i < n; i++ {
		if err := visit(netlist.ID(i)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// machine is one good or faulty copy of the circuit.
type machine struct {
	val []tv
	ff  []tv
	f   *fault.Fault // nil for the good machine
}

func (r *refSim) newMachine(f *fault.Fault) *machine {
	m := &machine{val: make([]tv, len(r.kind)), ff: make([]tv, len(r.c.DFFs)), f: f}
	for i := range m.ff {
		m.ff[i] = tx
	}
	if f != nil && f.IsStem() && r.ffOf[f.Node] >= 0 {
		m.ff[r.ffOf[f.Node]] = toTV(f.Stuck)
	}
	return m
}

// stem applies a stem fault at node id.
func (m *machine) stem(id netlist.ID, v tv) tv {
	if m.f != nil && m.f.Node == id && m.f.IsStem() {
		return toTV(m.f.Stuck)
	}
	return v
}

// pin reads pin p of node id, honouring a branch fault there.
func (m *machine) pin(r *refSim, id netlist.ID, p int) tv {
	if m.f != nil && m.f.Node == id && m.f.Pin == p {
		return toTV(m.f.Stuck)
	}
	return m.val[r.fanin[id][p]]
}

func (r *refSim) eval(m *machine, id netlist.ID) tv {
	k := r.kind[id]
	n := len(r.fanin[id])
	switch k {
	case netlist.KBuf:
		return m.pin(r, id, 0)
	case netlist.KNot:
		return m.pin(r, id, 0).not()
	case netlist.KAnd, netlist.KNand:
		out := t1
		for p := 0; p < n; p++ {
			switch m.pin(r, id, p) {
			case t0:
				out = t0
			case tx:
				if out == t1 {
					out = tx
				}
			}
			if out == t0 {
				break
			}
		}
		if k == netlist.KNand {
			return out.not()
		}
		return out
	case netlist.KOr, netlist.KNor:
		out := t0
		for p := 0; p < n; p++ {
			switch m.pin(r, id, p) {
			case t1:
				out = t1
			case tx:
				if out == t0 {
					out = tx
				}
			}
			if out == t1 {
				break
			}
		}
		if k == netlist.KNor {
			return out.not()
		}
		return out
	case netlist.KXor, netlist.KXnor:
		out := t0
		for p := 0; p < n; p++ {
			v := m.pin(r, id, p)
			if v == tx {
				out = tx
				break
			}
			if v == t1 {
				out = out.not()
			}
		}
		if k == netlist.KXnor {
			return out.not()
		}
		return out
	}
	return tx
}

// step applies one input vector: it settles the combinational logic, writes
// the primary-output values into po, and clocks the flip-flops.
func (r *refSim) step(m *machine, in logic.Vector, po []tv) {
	for id, k := range r.kind {
		switch k {
		case netlist.KConst0:
			m.val[id] = t0
		case netlist.KConst1:
			m.val[id] = t1
		}
	}
	for i, pi := range r.c.PIs {
		v := tx
		if i < len(in) {
			v = toTV(in[i])
		}
		m.val[pi] = m.stem(pi, v)
	}
	for i, ff := range r.c.DFFs {
		m.val[ff] = m.stem(ff, m.ff[i])
	}
	for _, id := range r.order {
		m.val[id] = m.stem(id, r.eval(m, id))
	}
	for i, o := range r.c.POs {
		po[i] = m.val[o]
	}
	for i, ff := range r.c.DFFs {
		m.ff[i] = m.stem(ff, m.pin(r, ff, 0))
	}
}

// goodOutputs simulates the fault-free machine over the vectors from the
// all-unknown state and returns the primary-output values per vector.
func (r *refSim) goodOutputs(vecs []logic.Vector) [][]tv {
	m := r.newMachine(nil)
	out := make([][]tv, len(vecs))
	for i, v := range vecs {
		out[i] = make([]tv, len(r.c.POs))
		r.step(m, v, out[i])
	}
	return out
}

// firstDetection returns the index of the first vector at which fault f is
// detected against the good outputs, or -1.
func (r *refSim) firstDetection(f fault.Fault, vecs []logic.Vector, good [][]tv) int {
	m := r.newMachine(&f)
	po := make([]tv, len(r.c.POs))
	for i, v := range vecs {
		r.step(m, v, po)
		for j, g := range good[i] {
			if g != tx && po[j] != tx && g != po[j] {
				return i
			}
		}
	}
	return -1
}

// detect grades a test set applied back to back from the all-unknown state:
// it maps every detected fault to the global index of its first detecting
// vector.
func (r *refSim) detect(faults []fault.Fault, set [][]logic.Vector) map[fault.Fault]int {
	vecs := flatten(set)
	good := r.goodOutputs(vecs)
	out := make(map[fault.Fault]int)
	for _, f := range faults {
		if vi := r.firstDetection(f, vecs, good); vi >= 0 {
			out[f] = vi
		}
	}
	return out
}

func flatten(set [][]logic.Vector) []logic.Vector {
	var out []logic.Vector
	for _, seq := range set {
		out = append(out, seq...)
	}
	return out
}
