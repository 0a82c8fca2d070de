package compact

import (
	"math/rand"
	"reflect"
	"testing"

	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/testgen"
)

// The reference compaction re-grades every candidate from reset: S+1 full
// fault simulations for S sequences, and one per trimmed vector. Sequences,
// TrimTail and Run must reproduce its outputs exactly.

func refSequences(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) [][]logic.Vector {
	baseline := coverage(c, faults, set)
	kept := append([][]logic.Vector(nil), set...)
	for i := len(kept) - 1; i >= 0; i-- {
		trial := make([][]logic.Vector, 0, len(kept)-1)
		trial = append(trial, kept[:i]...)
		trial = append(trial, kept[i+1:]...)
		if coverage(c, faults, trial) >= baseline {
			kept = trial
		}
	}
	return kept
}

func refTrimTail(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) [][]logic.Vector {
	if len(set) == 0 {
		return set
	}
	baseline := coverage(c, faults, set)
	out := append([][]logic.Vector(nil), set...)
	last := append([]logic.Vector(nil), out[len(out)-1]...)
	for len(last) > 0 {
		trial := append([][]logic.Vector(nil), out[:len(out)-1]...)
		if len(last) > 1 {
			trial = append(trial, last[:len(last)-1])
		}
		if coverage(c, faults, trial) < baseline {
			break
		}
		last = last[:len(last)-1]
		out = trial
	}
	return out
}

func refRun(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) ([][]logic.Vector, Stats) {
	st := Stats{SequencesBefore: len(set), VectorsBefore: countVectors(set)}
	out := refTrimTail(c, faults, refSequences(c, faults, set))
	st.SequencesAfter = len(out)
	st.VectorsAfter = countVectors(out)
	st.Detected = coverage(c, faults, out)
	return out, st
}

// checkAgainstReference compares Sequences, TrimTail and Run with the
// reference on one input.
func checkAgainstReference(t *testing.T, name string, c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) {
	t.Helper()
	if got, want := Sequences(c, faults, set), refSequences(c, faults, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Sequences kept %d sequences, reference %d:\n got %v\nwant %v", name, len(got), len(want), got, want)
	}
	if got, want := TrimTail(c, faults, set), refTrimTail(c, faults, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TrimTail\n got %v\nwant %v", name, got, want)
	}
	got, gotSt := Run(c, faults, set)
	want, wantSt := refRun(c, faults, set)
	if !reflect.DeepEqual(got, want) || gotSt != wantSt {
		t.Fatalf("%s: Run %+v, reference %+v\n got %v\nwant %v", name, gotSt, wantSt, got, want)
	}
}

// randomSet draws up to six sequences of up to six vectors, some of them
// empty, with unknown inputs at rate pX.
func randomSet(r *rand.Rand, nPI int, pX float64) [][]logic.Vector {
	set := make([][]logic.Vector, r.Intn(7))
	for i := range set {
		set[i] = testgen.RandomSequence(r, r.Intn(7), nPI, pX)
	}
	return set
}

// lastDetectsNothing reports whether the final sequence of set detects no
// fault the sequences before it leave undetected.
func lastDetectsNothing(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) bool {
	fs := faultsim.New(c, faults)
	for _, seq := range set[:len(set)-1] {
		fs.ApplySequence(seq)
	}
	return len(set[len(set)-1]) > 0 && len(fs.ApplySequence(set[len(set)-1])) == 0
}

func TestMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	dropsWhole := 0
	for trial := 0; trial < 240; trial++ {
		c := testgen.RandomCircuit(r, "rc", 1+r.Intn(4), 1+r.Intn(4), 6+r.Intn(30))
		faults := fault.Collapse(c)
		if trial%2 == 1 {
			faults = fault.All(c)
		}
		set := randomSet(r, len(c.PIs), []float64{0, 0.2, 0.6}[trial%3])
		switch trial % 4 {
		case 1: // every sequence twice over
			set = append(set, set...)
		case 2: // a tail of unknown inputs rarely detects anything new
			set = append(set, testgen.RandomSequence(r, 1+r.Intn(3), len(c.PIs), 1))
		}
		checkAgainstReference(t, "random case", c, faults, set)
		if len(set) > 0 && lastDetectsNothing(c, faults, set) {
			dropsWhole++
			if got := TrimTail(c, faults, set); !reflect.DeepEqual(got, append([][]logic.Vector(nil), set[:len(set)-1]...)) {
				t.Fatalf("trial %d: TrimTail kept a final sequence that detects nothing new: %v", trial, got)
			}
		}
	}
	if dropsWhole < 20 {
		t.Fatalf("only %d cases whose final sequence detects nothing new", dropsWhole)
	}
}

func TestMatchesReferenceS27(t *testing.T) {
	c, faults, set := setup(t)
	r := rand.New(rand.NewSource(27))
	withEmpty := append([][]logic.Vector{{}}, set[:4]...)
	withEmpty = append(withEmpty, nil)
	withEmpty = append(withEmpty, set[4:]...)
	withEmpty = append(withEmpty, []logic.Vector{})
	for _, tc := range []struct {
		name string
		set  [][]logic.Vector
	}{
		{"s27", set},
		{"s27 twice", append(append([][]logic.Vector(nil), set...), set...)},
		{"s27 with unknown inputs", [][]logic.Vector{
			testgen.RandomSequence(r, 8, len(c.PIs), 0.3),
			testgen.RandomSequence(r, 8, len(c.PIs), 0.3),
			testgen.RandomSequence(r, 8, len(c.PIs), 0.3),
		}},
		{"s27 with empty sequences", withEmpty},
		{"s27 with an unknown tail", append(append([][]logic.Vector(nil), set...),
			testgen.RandomSequence(r, 4, len(c.PIs), 1))},
		{"one sequence", set[:1]},
		{"empty", nil},
	} {
		checkAgainstReference(t, tc.name, c, faults, tc.set)
	}
}
