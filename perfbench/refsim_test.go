package main

import (
	"testing"

	"gahitec/internal/circuits"
	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
)

func s27(t *testing.T) (*netlist.Circuit, *refSim) {
	t.Helper()
	c, err := circuits.S27()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRefSim(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

func stem(t *testing.T, c *netlist.Circuit, name string, stuck logic.V) fault.Fault {
	t.Helper()
	id, ok := c.Lookup(name)
	if !ok {
		t.Fatalf("no node %s", name)
	}
	return fault.Fault{Node: id, Pin: fault.StemPin, Stuck: stuck}
}

func vecs(t *testing.T, ss ...string) []logic.Vector {
	t.Helper()
	var out []logic.Vector
	for _, s := range ss {
		v, err := logic.ParseVector(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// Inputs are G0 G1 G2 G3. With G0=1 and G3=0: G14=0, so G8=0 and G16=0,
// so G9=1, G11=0 and G17=1 whatever the unknown state. G17 s-a-0 is
// detected by the first vector.
func TestRefDetectsAtFirstVector(t *testing.T) {
	c, r := s27(t)
	f := stem(t, c, "G17", logic.Zero)
	det := r.detect([]fault.Fault{f}, [][]logic.Vector{vecs(t, "1000")})
	if vi, ok := det[f]; !ok || vi != 0 {
		t.Fatalf("G17 s-a-0: got %v, want detection at vector 0", det)
	}
}

// From the all-unknown state G12 can never be 1 (it needs G7=0, which
// needs G12=1 a frame earlier) and G8 can never be 1 (it needs G6=1, that
// is G11=1 a frame earlier), so G15, G9=0 and G11=1 are unreachable: G17
// is never 0, and G17 s-a-1 is undetectable.
func TestRefUndetectableFromUnknownState(t *testing.T) {
	c, r := s27(t)
	f := stem(t, c, "G17", logic.One)
	rnd := randomVectors(7, len(c.PIs), 2000)
	good := r.goodOutputs(rnd)
	for i, po := range good {
		if po[0] == t0 {
			t.Fatalf("good G17 is 0 at vector %d", i)
		}
	}
	if vi := r.firstDetection(f, rnd, good); vi >= 0 {
		t.Fatalf("G17 s-a-1 detected at random vector %d", vi)
	}
}

// G7 s-a-0 holds G7=0 from the first frame. Vector 0101 latches G5=0
// (G10=NOR(G14=1,.)=0) in both machines; vector 1001 then gives, in the
// faulty machine, G12=NOR(0,0)=1, G15=1, G16=1, G9=0, G11=NOR(0,0)=1,
// G17=0, against G17=1 in the good machine (G9=1 there). Applied alone
// from the unknown state, 1001 leaves G5 unknown and the faulty G17 X, so
// the detection needs the two sequences applied back to back.
func TestRefStuckFlipFlopAndBackToBack(t *testing.T) {
	c, r := s27(t)
	f := stem(t, c, "G7", logic.Zero)

	m := r.newMachine(&f)
	po := make([]tv, len(c.POs))
	r.step(m, vecs(t, "0101")[0], po)
	g7, _ := c.Lookup("G7")
	if m.val[g7] != t0 {
		t.Fatalf("faulty G7 in frame 0 = %v, want 0 (held from the start)", m.val[g7])
	}
	good := r.newMachine(nil)
	r.step(good, vecs(t, "0101")[0], po)
	if good.val[g7] != tx {
		t.Fatalf("good G7 in frame 0 = %v, want X", good.val[g7])
	}

	det := r.detect([]fault.Fault{f}, [][]logic.Vector{vecs(t, "0101"), vecs(t, "1001")})
	if vi, ok := det[f]; !ok || vi != 1 {
		t.Fatalf("back to back: got %v, want detection at vector 1", det)
	}
	if det := r.detect([]fault.Fault{f}, [][]logic.Vector{vecs(t, "1001")}); len(det) != 0 {
		t.Fatalf("1001 alone: got %v, want no detection (faulty G17 is X)", det)
	}
}
