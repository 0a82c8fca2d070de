package main

import (
	"fmt"
	"math/rand"
	"reflect"

	"gahitec/internal/compact"
	"gahitec/internal/fault"
	"gahitec/internal/hybrid"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
)

// randomCheckVectors is the length of the seeded random sequence every
// untestable claim is simulated against.
const randomCheckVectors = 512

// randomVectors returns n seeded random binary vectors of the given width.
func randomVectors(seed int64, width, n int) []logic.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]logic.Vector, n)
	for i := range out {
		v := make(logic.Vector, width)
		for j := range v {
			v[j] = logic.V(rng.Intn(2))
		}
		out[i] = v
	}
	return out
}

// checkEngineResult checks one work-bounded engine run against the
// reference simulator:
//   - the faults the reference detects with the run's test set, and the
//     vector that first detects each, equal the run's detection log;
//   - the reported detected and vector counts equal the reference's;
//   - no fault reported untestable is detected, by the test set or by a
//     seeded random sequence.
func checkEngineResult(ref *refSim, faults []fault.Fault, res *hybrid.Result, seed int64) error {
	want := ref.detect(faults, res.TestSet)
	got := make(map[fault.Fault]int, len(res.Detections))
	for _, d := range res.Detections {
		if _, dup := got[d.Fault]; dup {
			return fmt.Errorf("%s logged twice", d.Fault.String(ref.c))
		}
		got[d.Fault] = d.Vector
	}
	if err := sameDetections(ref.c, want, got); err != nil {
		return err
	}
	last := res.Passes[len(res.Passes)-1]
	if last.Detected != len(want) {
		return fmt.Errorf("reports %d detected, the reference detects %d", last.Detected, len(want))
	}
	if n := len(flatten(res.TestSet)); last.Vectors != n {
		return fmt.Errorf("reports %d vectors, the test set has %d", last.Vectors, n)
	}
	return checkUntestable(ref, res.Untestable, want, seed)
}

// sameDetections compares the reference's detections with claimed ones,
// fault by fault and detecting vector by detecting vector.
func sameDetections(c *netlist.Circuit, want, got map[fault.Fault]int) error {
	for f, vi := range want {
		gv, ok := got[f]
		if !ok {
			return fmt.Errorf("the reference detects %s at vector %d; the run does not log it", f.String(c), vi)
		}
		if gv != vi {
			return fmt.Errorf("the reference detects %s at vector %d; the run logs vector %d", f.String(c), vi, gv)
		}
	}
	for f, vi := range got {
		if _, ok := want[f]; !ok {
			return fmt.Errorf("the run logs %s at vector %d; the reference does not detect it", f.String(c), vi)
		}
	}
	return nil
}

// checkUntestable rejects an untestable claim for a fault the test set
// detects or a seeded random sequence from the all-unknown state detects.
func checkUntestable(ref *refSim, untestable []fault.Fault, detected map[fault.Fault]int, seed int64) error {
	rnd := randomVectors(seed, len(ref.c.PIs), randomCheckVectors)
	good := ref.goodOutputs(rnd)
	for _, f := range untestable {
		if vi, ok := detected[f]; ok {
			return fmt.Errorf("%s is reported untestable, but the test set detects it at vector %d", f.String(ref.c), vi)
		}
		if vi := ref.firstDetection(f, rnd, good); vi >= 0 {
			return fmt.Errorf("%s is reported untestable, but random vector %d (seed %d) detects it", f.String(ref.c), vi, seed)
		}
	}
	return nil
}

// sameResult checks that a repeated run reproduced the first one exactly:
// test set, detection log, untestable list and pass statistics.
func sameResult(a, b *hybrid.Result) error {
	switch {
	case !reflect.DeepEqual(a.TestSet, b.TestSet):
		return fmt.Errorf("test set differs from the first round's")
	case !reflect.DeepEqual(a.Detections, b.Detections):
		return fmt.Errorf("detection log differs from the first round's")
	case !reflect.DeepEqual(a.Untestable, b.Untestable):
		return fmt.Errorf("untestable list differs from the first round's")
	case len(a.Passes) != len(b.Passes):
		return fmt.Errorf("pass count differs from the first round's")
	}
	for i := range a.Passes {
		pa, pb := a.Passes[i], b.Passes[i]
		pa.Elapsed, pb.Elapsed = 0, 0
		if pa != pb {
			return fmt.Errorf("pass %d statistics differ from the first round's", i+1)
		}
	}
	return nil
}

// checkCompaction checks a compacted test set against its input:
//   - graded by the reference, it detects no fewer faults than the input,
//     and the count compact reports equals the reference's;
//   - it has no more vectors than the input, and the reported counts are
//     right;
//   - its sequences are an in-order subset of the input's, the last one
//     possibly cut short by tail trimming;
//   - no fault the input carries as untestable is detected.
//
// inDetected is the reference's count for the input.
func checkCompaction(ref *refSim, faults []fault.Fault, in, out [][]logic.Vector, st compact.Stats, inDetected int, untestable []fault.Fault, seed int64) error {
	if err := inOrderSubset(in, out); err != nil {
		return err
	}
	nIn, nOut := len(flatten(in)), len(flatten(out))
	if nOut > nIn {
		return fmt.Errorf("compacted set has %d vectors, its input %d", nOut, nIn)
	}
	if st.SequencesBefore != len(in) || st.SequencesAfter != len(out) || st.VectorsBefore != nIn || st.VectorsAfter != nOut {
		return fmt.Errorf("reported sizes %+v do not match the sets (%d/%d sequences, %d/%d vectors)", st, len(in), len(out), nIn, nOut)
	}
	det := ref.detect(faults, out)
	if len(det) < inDetected {
		return fmt.Errorf("compacted set detects %d faults, its input %d", len(det), inDetected)
	}
	if st.Detected != len(det) {
		return fmt.Errorf("reports %d detected, the reference detects %d", st.Detected, len(det))
	}
	return checkUntestable(ref, untestable, det, seed)
}

// inOrderSubset checks that every sequence of out is a sequence of in, in
// the same relative order; the last sequence of out may be a non-empty
// prefix of its match.
func inOrderSubset(in, out [][]logic.Vector) error {
	j := 0
	for i, seq := range out {
		last := i == len(out)-1
		for ; j < len(in); j++ {
			if reflect.DeepEqual(in[j], seq) || (last && len(seq) > 0 && len(seq) < len(in[j]) && reflect.DeepEqual(in[j][:len(seq)], seq)) {
				break
			}
		}
		if j == len(in) {
			return fmt.Errorf("compacted sequence %d is not an in-order subset of the input", i+1)
		}
		j++
	}
	return nil
}
