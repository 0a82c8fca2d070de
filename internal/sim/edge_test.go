package sim

import (
	"math/rand"
	"testing"

	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/testgen"
)

// Eval must not clock: repeated Eval with the same state is idempotent.
func TestEvalDoesNotClock(t *testing.T) {
	c := mustParse(t, s27, "s27")
	s := NewSerial(c)
	s.SetState(vec(t, "000"))
	o1 := s.Eval(vec(t, "0000"))
	st1 := s.State()
	o2 := s.Eval(vec(t, "0000"))
	if o1.String() != o2.String() || s.State().String() != st1.String() {
		t.Fatal("Eval changed state")
	}
	// Step does clock.
	s.Step(vec(t, "0000"))
	if s.State().String() == st1.String() {
		t.Log("state happened to be a fixed point; acceptable")
	}
}

// A D-pin branch fault on a flip-flop corrupts only the latched value, not
// the combinational path.
func TestDFFDPinFault(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
OUTPUT(w)
q = DFF(a)
z = BUF(q)
w = BUF(a)
`
	c := mustParse(t, src, "dpin")
	q, _ := c.Lookup("q")
	s := NewSerial(c)
	s.InjectFault(fault.Fault{Node: q, Pin: 0, Stuck: logic.Zero})
	one := logic.Vector{logic.One}
	out := s.Step(one) // w = a = 1 immediately; q latches stuck 0
	if out[1] != logic.One {
		t.Fatalf("combinational path corrupted: w = %s", out[1])
	}
	out = s.Step(one)
	if out[0] != logic.Zero {
		t.Fatalf("D-pin s-a-0 not latched: z = %s", out[0])
	}
}

// Wide-fanin gates evaluate correctly in both simulators.
func TestWideFanin(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b, c, d, e)
z = XOR(a, b, c, d, e)
`
	cc := mustParse(t, src, "wide")
	s := NewSerial(cc)
	in := vec(t, "11111")
	out := s.Eval(in)
	if out.String() != "11" {
		t.Fatalf("AND5/XOR5 of ones = %s", out)
	}
	in2 := vec(t, "11110")
	out = s.Eval(in2)
	if out.String() != "00" {
		t.Fatalf("AND5/XOR5 of 11110 = %s", out)
	}
	// Parallel agrees.
	ps := NewPatternSim(cc)
	ws := make([]logic.Word, 5)
	for i := range ws {
		ws[i] = logic.WordAllX.WithLane(0, in[i]).WithLane(1, in2[i])
	}
	po := ps.Eval(ws)
	if po[0].Get(0) != logic.One || po[0].Get(1) != logic.Zero {
		t.Fatal("pattern sim wide-fanin mismatch")
	}
}

// A primary input marked as primary output is observable directly.
func TestPIAsPO(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	c := mustParse(t, src, "pipo")
	s := NewSerial(c)
	out := s.Eval(vec(t, "1"))
	if out.String() != "10" {
		t.Fatalf("PI-as-PO eval = %s", out)
	}
	// A stem fault on the PI shows at both POs.
	a, _ := c.Lookup("a")
	s.InjectFault(fault.Fault{Node: a, Pin: fault.StemPin, Stuck: logic.Zero})
	out = s.Eval(vec(t, "1"))
	if out.String() != "01" {
		t.Fatalf("faulty PI-as-PO eval = %s", out)
	}
}

// ClearFault restores fault-free behavior.
func TestClearFaultRestores(t *testing.T) {
	c := mustParse(t, s27, "s27")
	g17, _ := c.Lookup("G17")
	s := NewSerial(c)
	s.SetState(vec(t, "000"))
	clean := s.Eval(vec(t, "0000")).String()

	s.InjectFault(fault.Fault{Node: g17, Pin: fault.StemPin, Stuck: logic.Zero})
	s.SetState(vec(t, "000"))
	faulty := s.Eval(vec(t, "0000")).String()
	if faulty == clean {
		t.Fatal("fault had no effect on a sensitized vector")
	}
	s.ClearFault()
	s.SetState(vec(t, "000"))
	if got := s.Eval(vec(t, "0000")).String(); got != clean {
		t.Fatalf("ClearFault did not restore: %s vs %s", got, clean)
	}

	// The 64-lane simulator through LoadFaults -> InjectFault -> ClearFault:
	// each load replaces every fault before it, so after each step every
	// lane of every node equals the serial machine with the same fault (or
	// none). A surviving mask from the per-lane load would stick some lane's
	// node at a value the serial machine does not have.
	ps := NewPatternSim(c)
	in := make([]logic.Word, len(c.PIs))
	for i := range in {
		in[i] = logic.WordAll(logic.Zero)
	}
	same := func(when string) {
		t.Helper()
		s.SetState(vec(t, "000"))
		s.Eval(vec(t, "0000"))
		ps.SetStateBroadcast(vec(t, "000"))
		ps.Eval(in)
		for i := range c.Nodes {
			id := netlist.ID(i)
			for l := 0; l < logic.Lanes; l++ {
				if got, want := ps.NodeWord(id).Get(l), s.Value(id); got != want {
					t.Fatalf("%s: node %s lane %d = %s, serial %s", when, c.Nodes[i].Name, l, got, want)
				}
			}
		}
	}
	all := fault.All(c)
	ps.LoadFaults(all[:min(len(all), logic.Lanes)])
	f := fault.Fault{Node: g17, Pin: fault.StemPin, Stuck: logic.Zero}
	ps.InjectFault(f)
	s.InjectFault(f)
	same("after InjectFault")
	ps.ClearFault()
	s.ClearFault()
	same("after ClearFault")
}

// Missing input entries are treated as X (short vectors are tolerated).
func TestShortInputVector(t *testing.T) {
	c := mustParse(t, s27, "s27")
	s := NewSerial(c)
	out := s.Eval(logic.Vector{logic.Zero}) // only G0 driven
	if len(out) != 1 {
		t.Fatal("output width wrong")
	}
}

// Fuzz the pattern simulator's event-driven scheduling: random stimulus
// interleaved with state overwrites must match a freshly settled simulator.
func TestPatternSchedulingFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	c := testgen.RandomCircuit(r, "fz", 4, 5, 40)
	ps := NewPatternSim(c)
	for step := 0; step < 30; step++ {
		st := testgen.RandomVector(r, len(c.DFFs), 0.2)
		in := make([]logic.Word, len(c.PIs))
		inVecs := make([]logic.Vector, logic.Lanes)
		for l := range inVecs {
			inVecs[l] = testgen.RandomVector(r, len(c.PIs), 0.1)
		}
		for pi := range in {
			w := logic.WordAllX
			for l := 0; l < 8; l++ {
				w = w.WithLane(l, inVecs[l][pi])
			}
			in[pi] = w
		}
		ps.SetStateBroadcast(st)
		got := ps.Eval(in)

		for l := 0; l < 8; l++ {
			ref := NewSerial(c)
			ref.SetState(st)
			want := ref.Eval(inVecs[l])
			for o := range want {
				if got[o].Get(l) != want[o] {
					t.Fatalf("step %d lane %d PO %d: %s vs %s",
						step, l, o, got[o].Get(l), want[o])
				}
			}
		}
	}
}
