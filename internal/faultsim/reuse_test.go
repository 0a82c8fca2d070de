package faultsim

import (
	"math/rand"
	"reflect"
	"testing"

	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/sim"
	"gahitec/internal/testgen"
)

// reuseFaults returns a fault list of more than 64 faults whose count is not
// a multiple of 64, shuffled so that consecutive batches inject different
// sites, but with both stuck values of every branch fault on a multi-input
// gate kept in adjacent lanes of one batch. It returns nil when the circuit
// has too few faults or no such branch.
func reuseFaults(r *rand.Rand, c *netlist.Circuit) []fault.Fault {
	var pairs [][]fault.Fault
	var branch bool
	for _, f := range fault.All(c) {
		if f.Stuck != logic.Zero {
			continue
		}
		g := f
		g.Stuck = logic.One
		pairs = append(pairs, []fault.Fault{f, g})
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var out []fault.Fault
	for _, p := range pairs {
		if len(out)%logic.Lanes == logic.Lanes-1 {
			out = append(out, p[0]) // keep the pairs inside one batch
			continue
		}
		out = append(out, p...)
		branch = branch || (!p[0].IsStem() && len(c.Nodes[p[0].Node].Fanin) > 1)
	}
	if len(out)%logic.Lanes == 0 {
		out = out[:len(out)-1]
	}
	if !branch || len(out) <= logic.Lanes {
		return nil
	}
	return out
}

// refSignature collects every failing (vector, PO) observation of f on the
// serial reference, both machines starting all-unknown.
func refSignature(c *netlist.Circuit, f fault.Fault, seq []logic.Vector) []Observation {
	good := sim.NewSerial(c)
	bad := sim.NewSerial(c)
	bad.InjectFault(f)
	var out []Observation
	for vi, in := range seq {
		g, b := good.Step(in), bad.Step(in)
		for poi := range g {
			if g[poi].IsKnown() && b[poi].IsKnown() && g[poi] != b[poi] {
				out = append(out, Observation{Vector: vi, PO: poi})
			}
		}
	}
	return out
}

// snapshot copies what a simulator reports.
type snapshot struct {
	remaining  []fault.Fault
	detections []Detection
	potential  []fault.Fault
	good       logic.Vector
	vectors    int
}

func snap(s *Simulator) snapshot {
	return snapshot{
		remaining:  append([]fault.Fault(nil), s.Remaining()...),
		detections: append([]Detection(nil), s.Detections()...),
		potential:  s.PotentiallyDetected(),
		good:       s.GoodState(),
		vectors:    s.NumVectors(),
	}
}

// One Simulator reloads its batch for every 64-fault group on every
// ApplySequence call; masks left over from an earlier group would show up as
// a detection the serial reference does not make, or at another vector.
// Signatures reloads the same way. A Clone must be independent of the
// simulator it came from.
func TestBatchReuseMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	cases := 0
	for cases < 12 {
		c := testgen.RandomCircuit(r, "rc", 2+r.Intn(4), 1+r.Intn(5), 30+r.Intn(50))
		faults := reuseFaults(r, c)
		if faults == nil {
			continue
		}
		cases++
		fs := New(c, faults)
		var history []logic.Vector
		var seqs [][]logic.Vector
		var other, replay *Simulator
		var otherSnap snapshot
		for call := 0; call < 4; call++ {
			seq := testgen.RandomSequence(r, 2+r.Intn(5), len(c.PIs), 0.1)
			history = append(history, seq...)
			seqs = append(seqs, seq)
			fs.ApplySequence(seq)
			if call != 1 {
				continue
			}
			// Advancing a clone over other vectors leaves the original and
			// its other clones as they were.
			before := snap(fs)
			other, replay = fs.Clone(), fs.Clone()
			other.ApplySequence(testgen.RandomSequence(r, 6, len(c.PIs), 0))
			if !reflect.DeepEqual(snap(fs), before) || !reflect.DeepEqual(snap(replay), before) {
				t.Fatalf("case %d: advancing a clone changed the original or another clone", cases)
			}
			otherSnap = snap(other)
		}
		if !reflect.DeepEqual(snap(other), otherSnap) {
			t.Fatalf("case %d: advancing the original changed its clone", cases)
		}
		// A clone advanced over the original's vectors reaches its state.
		for _, seq := range seqs[2:] {
			replay.ApplySequence(seq)
		}
		if !reflect.DeepEqual(snap(replay), snap(fs)) {
			t.Fatalf("case %d: the clone did not reach the original's state", cases)
		}

		at := make(map[fault.Fault]int)
		for _, d := range fs.Detections() {
			at[d.Fault] = d.Vector
		}
		for _, f := range faults {
			ok, vi := DetectsFrom(c, f, nil, nil, history)
			got, detected := at[f]
			if ok != detected || (ok && vi != got) {
				t.Fatalf("case %d: %s: simulator (%v, vector %d), serial reference (%v, vector %d)",
					cases, f.String(c), detected, got, ok, vi)
			}
		}
		if len(fs.Remaining())+fs.NumDetected() != len(faults) {
			t.Fatalf("case %d: %d remaining + %d detected != %d", cases, len(fs.Remaining()), fs.NumDetected(), len(faults))
		}

		sigs := Signatures(c, faults, history)
		for i, f := range faults {
			if want := refSignature(c, f, history); !reflect.DeepEqual(sigs[i], want) {
				t.Fatalf("case %d: signature of %s is %v, serial reference %v", cases, f.String(c), sigs[i], want)
			}
		}
	}
}
