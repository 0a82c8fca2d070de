// Package sim provides logic simulation for sequential circuits: a serial
// three-valued reference simulator and a 64-lane bit-parallel simulator that
// evaluates every gate in level order on each settle. The 64-lane simulator
// is the one engine behind both of the paper's bit-parallel uses: 32
// candidate sequences per pass (64 here) through one good or faulty machine
// for GA fitness, and one sequence through 64 faulty machines, one fault per
// lane, for fault simulation. Both simulators inject stuck-at faults with
// identical semantics.
package sim

import (
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
)

// evalScalar computes the three-valued output of a gate from its fanin
// values.
func evalScalar(kind netlist.Kind, in []logic.V) logic.V {
	switch kind {
	case netlist.KBuf:
		return in[0]
	case netlist.KNot:
		return in[0].Not()
	case netlist.KAnd, netlist.KNand:
		acc := logic.One
		for _, v := range in {
			acc = logic.And(acc, v)
		}
		if kind == netlist.KNand {
			acc = acc.Not()
		}
		return acc
	case netlist.KOr, netlist.KNor:
		acc := logic.Zero
		for _, v := range in {
			acc = logic.Or(acc, v)
		}
		if kind == netlist.KNor {
			acc = acc.Not()
		}
		return acc
	case netlist.KXor, netlist.KXnor:
		acc := in[0]
		for _, v := range in[1:] {
			acc = logic.Xor(acc, v)
		}
		if kind == netlist.KXnor {
			acc = acc.Not()
		}
		return acc
	case netlist.KConst0:
		return logic.Zero
	case netlist.KConst1:
		return logic.One
	default:
		return logic.X
	}
}
