package sim

import (
	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
)

// PatternSim simulates 64 machines in bit-parallel fashion: lane i of every
// word belongs to machine i. It serves both uses of the paper's bit-parallel
// simulation: 64 candidate sequences through one good or one faulty machine
// (GA fitness, InjectFault), and one sequence through 64 faulty machines,
// one fault per lane (fault simulation, LoadFaults).
//
// Evaluation is oblivious: every settle evaluates every gate of the circuit
// once, in level order, with no event scheduling. Nearly every gate changes
// on every step of a GA fitness run, so tracking which ones did saves
// nothing, and a settle reaches the same values either way.
//
// Faults go in by per-lane masks, so a machine without faults reads none.
// stuck[id] forces the stem of node id in the lanes where it is defined, to
// the value it carries there; pinStuck[pinOff[id]+k] does the same for input
// pin k of gate or flip-flop id. faulted[id] says which of the two node id
// has.
type PatternSim struct {
	c   *netlist.Circuit
	val []logic.Word

	faulted  []uint8
	stuck    []logic.Word // allocated on the first fault
	pinStuck []logic.Word // allocated on the first fault
	pinOff   []int32
	loaded   []fault.Fault // the faults whose masks the next load clears

	nextQ []logic.Word
}

// faulted bits.
const (
	stemFault uint8 = 1 << iota
	pinFault
)

// NewPatternSim returns a fault-free simulator in the all-unknown state.
func NewPatternSim(c *netlist.Circuit) *PatternSim {
	p := &PatternSim{
		c:       c,
		val:     make([]logic.Word, len(c.Nodes)),
		faulted: make([]uint8, len(c.Nodes)),
		nextQ:   make([]logic.Word, len(c.DFFs)),
	}
	p.Reset()
	return p
}

// Circuit returns the simulated circuit.
func (p *PatternSim) Circuit() *netlist.Circuit { return p.c }

// InjectFault puts the given stuck-at fault in every lane, replacing any
// earlier faults, and resets the simulator (a stuck line holds its value
// from power-on). This is the faulty machine of GA fitness.
func (p *PatternSim) InjectFault(f fault.Fault) {
	p.load([]fault.Fault{f}, ^uint64(0))
}

// LoadFaults puts fs[i] in lane i (at most 64 faults), replacing any earlier
// faults, and resets the simulator. Lanes past len(fs) carry no fault. This
// is the batch of faulty machines of fault simulation.
func (p *PatternSim) LoadFaults(fs []fault.Fault) {
	p.load(fs, 1)
}

// ClearFault removes every fault and resets the simulator.
func (p *PatternSim) ClearFault() {
	p.load(nil, 0)
}

// load replaces the loaded faults by fs, fs[i] going in the lanes of
// lanes<<i (lanes 1: lane i; all lanes for a single fault), and resets.
func (p *PatternSim) load(fs []fault.Fault, lanes uint64) {
	for _, f := range p.loaded {
		p.faulted[f.Node] = 0
		if f.IsStem() {
			p.stuck[f.Node] = logic.WordAllX
		} else {
			p.pinStuck[p.pinOff[f.Node]+int32(f.Pin)] = logic.WordAllX
		}
	}
	p.loaded = append(p.loaded[:0], fs...)
	if len(fs) != 0 && p.stuck == nil {
		p.allocMasks()
	}
	for i, f := range fs {
		m := &p.stuck[f.Node]
		hit := stemFault
		if !f.IsStem() {
			m = &p.pinStuck[p.pinOff[f.Node]+int32(f.Pin)]
			hit = pinFault
		}
		*m = logic.SpreadV(*m, lanes<<uint(i), f.Stuck)
		p.faulted[f.Node] |= hit
	}
	p.Reset()
}

func (p *PatternSim) allocMasks() {
	p.pinOff = make([]int32, len(p.c.Nodes))
	nPins := 0
	for i := range p.c.Nodes {
		p.pinOff[i] = int32(nPins)
		nPins += len(p.c.Nodes[i].Fanin)
	}
	p.stuck = make([]logic.Word, len(p.c.Nodes))
	p.pinStuck = make([]logic.Word, nPins)
}

// Reset puts every node to X in all lanes, keeping the faults: constants
// take their value and stuck stems their stuck value.
func (p *PatternSim) Reset() {
	for i := range p.val {
		var w logic.Word
		switch p.c.Nodes[i].Kind {
		case netlist.KConst0:
			w = logic.WordAll(logic.Zero)
		case netlist.KConst1:
			w = logic.WordAll(logic.One)
		default:
			w = logic.WordAllX
		}
		// A stuck stem holds its value from power-on, before any clocking.
		p.val[i] = p.stemFixed(netlist.ID(i), w)
	}
}

// force returns w with the lanes where m is defined replaced by m's.
func force(w, m logic.Word) logic.Word {
	all := m.Ones | m.Zeros
	return logic.Word{Ones: w.Ones&^all | m.Ones, Zeros: w.Zeros&^all | m.Zeros}
}

// stemFixed applies the stem faults at node id.
func (p *PatternSim) stemFixed(id netlist.ID, w logic.Word) logic.Word {
	if p.faulted[id]&stemFault != 0 {
		w = force(w, p.stuck[id])
	}
	return w
}

// faninWord reads the word seen by pin k of node id, whose fanins are fin
// and whose faulted bits are hit.
func (p *PatternSim) faninWord(id netlist.ID, hit uint8, fin []netlist.ID, k int) logic.Word {
	w := p.val[fin[k]]
	if hit&pinFault != 0 {
		w = force(w, p.pinStuck[p.pinOff[id]+int32(k)])
	}
	return w
}

// SetStateBroadcast forces every lane's flip-flops to the same state vector.
func (p *PatternSim) SetStateBroadcast(st logic.Vector) {
	for i, ff := range p.c.DFFs {
		p.val[ff] = p.stemFixed(ff, logic.WordAll(st[i]))
	}
}

// SetStateWords forces the flip-flop state per lane; ws has one word per
// flip-flop.
func (p *PatternSim) SetStateWords(ws []logic.Word) {
	for i, ff := range p.c.DFFs {
		p.val[ff] = p.stemFixed(ff, ws[i])
	}
}

// StateWords returns the current per-lane flip-flop state (one word per
// flip-flop). The returned slice is freshly allocated.
func (p *PatternSim) StateWords() []logic.Word {
	out := make([]logic.Word, len(p.c.DFFs))
	for i, ff := range p.c.DFFs {
		out[i] = p.val[ff]
	}
	return out
}

// StateLane extracts one lane's flip-flop state.
func (p *PatternSim) StateLane(lane int) logic.Vector {
	st := make(logic.Vector, len(p.c.DFFs))
	for i, ff := range p.c.DFFs {
		st[i] = p.val[ff].Get(lane)
	}
	return st
}

// NodeWord returns the settled word at a node.
func (p *PatternSim) NodeWord(id netlist.ID) logic.Word { return p.val[id] }

// Settle applies one set of PI words (one word per PI; missing ones are X)
// and evaluates every gate in level order, without clocking.
func (p *PatternSim) Settle(in []logic.Word) {
	for i, pi := range p.c.PIs {
		w := logic.WordAllX
		if i < len(in) {
			w = in[i]
		}
		p.val[pi] = p.stemFixed(pi, w)
	}
	for _, id := range p.c.Order {
		n := &p.c.Nodes[id]
		fin := n.Fanin
		hit := p.faulted[id]
		var w logic.Word
		switch n.Kind {
		case netlist.KBuf:
			w = p.faninWord(id, hit, fin, 0)
		case netlist.KNot:
			w = logic.NotW(p.faninWord(id, hit, fin, 0))
		case netlist.KAnd, netlist.KNand:
			w = logic.WordAll(logic.One)
			for k := range fin {
				w = logic.AndW(w, p.faninWord(id, hit, fin, k))
			}
			if n.Kind == netlist.KNand {
				w = logic.NotW(w)
			}
		case netlist.KOr, netlist.KNor:
			w = logic.WordAll(logic.Zero)
			for k := range fin {
				w = logic.OrW(w, p.faninWord(id, hit, fin, k))
			}
			if n.Kind == netlist.KNor {
				w = logic.NotW(w)
			}
		case netlist.KXor, netlist.KXnor:
			w = p.faninWord(id, hit, fin, 0)
			for k := 1; k < len(fin); k++ {
				w = logic.XorW(w, p.faninWord(id, hit, fin, k))
			}
			if n.Kind == netlist.KXnor {
				w = logic.NotW(w)
			}
		}
		if hit&stemFault != 0 {
			w = force(w, p.stuck[id])
		}
		p.val[id] = w
	}
}

// Clock latches every flip-flop's D input into its Q.
func (p *PatternSim) Clock() {
	for i, ff := range p.c.DFFs {
		p.nextQ[i] = p.faninWord(ff, p.faulted[ff], p.c.Nodes[ff].Fanin, 0)
	}
	for i, ff := range p.c.DFFs {
		p.val[ff] = p.stemFixed(ff, p.nextQ[i])
	}
}

// Outputs captures the current PO words.
func (p *PatternSim) Outputs() []logic.Word {
	out := make([]logic.Word, len(p.c.POs))
	for i, po := range p.c.POs {
		out[i] = p.val[po]
	}
	return out
}

// Eval applies one set of PI words, settles and returns the PO words,
// without clocking.
func (p *PatternSim) Eval(in []logic.Word) []logic.Word {
	p.Settle(in)
	return p.Outputs()
}

// Step applies one set of PI words, settles, captures outputs, then clocks
// the flip-flops.
func (p *PatternSim) Step(in []logic.Word) []logic.Word {
	p.Settle(in)
	out := p.Outputs()
	p.Clock()
	return out
}
