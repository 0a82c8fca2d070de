package faultsim

import (
	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
)

// batch is a 64-lane faulty-machine simulator where every lane carries a
// *different* fault. Fault injection is mask-based: for each node, the lanes
// whose fault sticks that node's stem are precomputed, and likewise per gate
// input pin for branch faults. Evaluation is event-driven over the levelized
// netlist (the PROOFS scheduling discipline): only gates whose fanin words
// changed are re-evaluated, which matters because consecutive vectors leave
// most of the circuit untouched.
//
// One batch serves every 64-fault group a Simulator grades: load clears the
// previous group's masks and returns the machine to power-on.
type batch struct {
	c   *netlist.Circuit
	val []logic.Word

	// stem0/stem1: per node, lanes whose fault forces the stem to 0/1.
	stem0, stem1 []uint64
	// pin0/pin1: per gate input pin, at pinOff[node]+pin, lanes whose
	// branch fault forces that pin to 0/1. pinned[node] is set while some
	// pin of the node carries a branch fault, so every other gate reads its
	// fanins without looking the masks up.
	pin0, pin1 []uint64
	pinOff     []int32
	pinned     []bool

	faults []fault.Fault // the loaded group, whose masks the next load clears

	gateFanouts [][]netlist.ID // per node: the gates reading it
	buckets     [][]netlist.ID
	scheduled   []bool
	maxLevel    int

	nextQ []logic.Word
}

func newBatch(c *netlist.Circuit) *batch {
	maxLevel := 0
	for _, l := range c.Level {
		if int(l) > maxLevel {
			maxLevel = int(l)
		}
	}
	pinOff := make([]int32, len(c.Nodes))
	gateFanouts := make([][]netlist.ID, len(c.Nodes))
	nPins := 0
	for i := range c.Nodes {
		pinOff[i] = int32(nPins)
		nPins += len(c.Nodes[i].Fanin)
		for _, fo := range c.Fanouts[i] {
			if c.Nodes[fo].Kind.IsGate() {
				gateFanouts[i] = append(gateFanouts[i], fo)
			}
		}
	}
	return &batch{
		c:           c,
		val:         make([]logic.Word, len(c.Nodes)),
		stem0:       make([]uint64, len(c.Nodes)),
		stem1:       make([]uint64, len(c.Nodes)),
		pin0:        make([]uint64, nPins),
		pin1:        make([]uint64, nPins),
		pinOff:      pinOff,
		pinned:      make([]bool, len(c.Nodes)),
		faults:      make([]fault.Fault, 0, logic.Lanes),
		gateFanouts: gateFanouts,
		buckets:     make([][]netlist.ID, maxLevel+1),
		scheduled:   make([]bool, len(c.Nodes)),
		maxLevel:    maxLevel,
		nextQ:       make([]logic.Word, len(c.DFFs)),
	}
}

// load injects faults (at most 64), one per lane, and resets the machine:
// everything unknown, constants and stuck stems forced, and every gate
// scheduled for the first settle.
func (b *batch) load(faults []fault.Fault) {
	for _, f := range b.faults {
		if f.IsStem() {
			b.stem0[f.Node], b.stem1[f.Node] = 0, 0
		} else {
			k := b.pinOff[f.Node] + int32(f.Pin)
			b.pin0[k], b.pin1[k] = 0, 0
			b.pinned[f.Node] = false
		}
	}
	b.faults = append(b.faults[:0], faults...)
	for l, f := range faults {
		bit := uint64(1) << uint(l)
		switch {
		case f.IsStem() && f.Stuck == logic.Zero:
			b.stem0[f.Node] |= bit
		case f.IsStem():
			b.stem1[f.Node] |= bit
		case f.Stuck == logic.Zero:
			b.pin0[b.pinOff[f.Node]+int32(f.Pin)] |= bit
			b.pinned[f.Node] = true
		default:
			b.pin1[b.pinOff[f.Node]+int32(f.Pin)] |= bit
			b.pinned[f.Node] = true
		}
	}
	for i := range b.val {
		w := logic.WordAllX
		switch b.c.Nodes[i].Kind {
		case netlist.KConst0:
			w = logic.WordAll(logic.Zero)
		case netlist.KConst1:
			w = logic.WordAll(logic.One)
		}
		b.val[i] = b.stemFixed(netlist.ID(i), w)
	}
	// Gates the previous group's last clock scheduled stay scheduled, once:
	// gates of one level do not read each other, so their order is free.
	for _, id := range b.c.Order {
		b.schedule(id)
	}
}

func (b *batch) schedule(id netlist.ID) {
	if b.scheduled[id] {
		return
	}
	b.scheduled[id] = true
	lvl := b.c.Level[id]
	b.buckets[lvl] = append(b.buckets[lvl], id)
}

// setNode writes a value and schedules gate readers if it changed.
func (b *batch) setNode(id netlist.ID, w logic.Word) {
	if b.val[id] == w {
		return
	}
	b.val[id] = w
	for _, fo := range b.gateFanouts[id] {
		b.schedule(fo)
	}
}

// stemFixed forces the lanes whose fault sticks node id.
func (b *batch) stemFixed(id netlist.ID, w logic.Word) logic.Word {
	if m := b.stem0[id]; m != 0 {
		w = logic.SpreadV(w, m, logic.Zero)
	}
	if m := b.stem1[id]; m != 0 {
		w = logic.SpreadV(w, m, logic.One)
	}
	return w
}

// faninWord reads the word seen by pin p of node g, whose fanins are fin,
// honouring branch faults.
func (b *batch) faninWord(g netlist.ID, fin []netlist.ID, p int) logic.Word {
	w := b.val[fin[p]]
	if b.pinned[g] {
		k := b.pinOff[g] + int32(p)
		if m := b.pin0[k]; m != 0 {
			w = logic.SpreadV(w, m, logic.Zero)
		}
		if m := b.pin1[k]; m != 0 {
			w = logic.SpreadV(w, m, logic.One)
		}
	}
	return w
}

// settle applies a (broadcast) input vector and propagates events in level
// order.
func (b *batch) settle(in logic.Vector) {
	for i, pi := range b.c.PIs {
		v := logic.X
		if i < len(in) {
			v = in[i]
		}
		b.setNode(pi, b.stemFixed(pi, logic.WordAll(v)))
	}
	for lvl := 0; lvl <= b.maxLevel; lvl++ {
		bucket := b.buckets[lvl]
		for k := 0; k < len(bucket); k++ {
			id := bucket[k]
			b.scheduled[id] = false
			n := &b.c.Nodes[id]
			fin := n.Fanin
			var w logic.Word
			switch n.Kind {
			case netlist.KBuf:
				w = b.faninWord(id, fin, 0)
			case netlist.KNot:
				w = logic.NotW(b.faninWord(id, fin, 0))
			case netlist.KAnd, netlist.KNand:
				w = logic.WordAll(logic.One)
				for p := range fin {
					w = logic.AndW(w, b.faninWord(id, fin, p))
				}
				if n.Kind == netlist.KNand {
					w = logic.NotW(w)
				}
			case netlist.KOr, netlist.KNor:
				w = logic.WordAll(logic.Zero)
				for p := range fin {
					w = logic.OrW(w, b.faninWord(id, fin, p))
				}
				if n.Kind == netlist.KNor {
					w = logic.NotW(w)
				}
			case netlist.KXor, netlist.KXnor:
				w = b.faninWord(id, fin, 0)
				for p := 1; p < len(fin); p++ {
					w = logic.XorW(w, b.faninWord(id, fin, p))
				}
				if n.Kind == netlist.KXnor {
					w = logic.NotW(w)
				}
			default:
				w = logic.WordAllX
			}
			b.setNode(id, b.stemFixed(id, w))
		}
		b.buckets[lvl] = bucket[:0]
	}
}

// clock latches D into Q for every flip-flop.
func (b *batch) clock() {
	for i, ff := range b.c.DFFs {
		b.nextQ[i] = b.faninWord(ff, b.c.Nodes[ff].Fanin, 0)
	}
	for i, ff := range b.c.DFFs {
		b.setNode(ff, b.stemFixed(ff, b.nextQ[i]))
	}
}
