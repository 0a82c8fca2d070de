// Package compact implements static test-set compaction for sequential
// test sets. The generators of the paper era emitted one justification +
// propagation sequence per targeted fault; later sequences often cover
// earlier faults incidentally, so whole sequences can frequently be dropped
// without losing coverage. Compaction is coverage-preserving by
// construction: every candidate reduction is re-graded with the fault
// simulator before it is accepted.
package compact

import (
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
)

// Sequences removes whole test sequences, scanning from the last added to
// the first (later sequences were generated against harder faults and tend
// to subsume earlier ones), keeping only those whose removal would reduce
// coverage. The returned set preserves the relative order of the survivors.
//
// Every candidate drop is graded exactly, but not from reset. The backward
// scan never changes the sequences before the candidate, so the trial
// resumes from a clone of the fault simulator taken at that sequence
// boundary while the whole set was graded once, and it is accepted as soon
// as it detects as many faults as the whole set.
func Sequences(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) [][]logic.Vector {
	fs := faultsim.New(c, faults)
	snaps := make([]*faultsim.Simulator, len(set)) // snaps[i]: state after set[:i]
	for i, seq := range set {
		snaps[i] = fs.Clone()
		fs.ApplySequence(seq)
	}
	baseline := fs.NumDetected()
	kept := append([][]logic.Vector(nil), set...)
	for i := len(kept) - 1; i >= 0; i-- {
		if reaches(snaps[i], kept[i+1:], baseline) {
			kept = append(kept[:i], kept[i+1:]...)
		}
		snaps[i] = nil // its only trial is done
	}
	return kept
}

// reaches applies the sequences to fs until it has detected baseline faults
// and reports whether it got there.
func reaches(fs *faultsim.Simulator, set [][]logic.Vector, baseline int) bool {
	for _, seq := range set {
		if fs.NumDetected() >= baseline {
			break
		}
		fs.ApplySequence(seq)
	}
	return fs.NumDetected() >= baseline
}

// TrimTail removes trailing vectors from the final sequence while coverage
// is preserved (the last vectors of the last test often only clock the
// machine past the final observation). Coverage only grows with the number
// of vectors kept, so the final sequence is simulated once, from the state
// the others leave, and cut after the last vector that detects a fault; a
// final sequence that detects nothing is dropped whole.
func TrimTail(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) [][]logic.Vector {
	out, _ := trimTail(c, faults, set)
	return out
}

// trimTail is TrimTail that also returns the number of faults the trimmed
// set detects: as many as the untrimmed one, since the vectors cut detect
// nothing.
func trimTail(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) ([][]logic.Vector, int) {
	if len(set) == 0 {
		return set, 0
	}
	fs := faultsim.New(c, faults)
	out := append([][]logic.Vector(nil), set[:len(set)-1]...)
	for _, seq := range out {
		fs.ApplySequence(seq)
	}
	last := set[len(set)-1]
	if len(last) == 0 { // no vector to trim: it stays
		return append(out, last), fs.NumDetected()
	}
	start, prior := fs.NumVectors(), fs.NumDetected()
	fs.ApplySequence(last)
	// One call's detections come ordered by 64-fault batch, not by vector.
	keep := 0
	for _, d := range fs.Detections()[prior:] {
		keep = max(keep, d.Vector-start+1)
	}
	if keep > 0 {
		out = append(out, last[:keep:keep])
	}
	return out, fs.NumDetected()
}

// Stats summarizes a compaction outcome.
type Stats struct {
	SequencesBefore, SequencesAfter int
	VectorsBefore, VectorsAfter     int
	Detected                        int
}

// Run applies Sequences then TrimTail and reports before/after statistics.
func Run(c *netlist.Circuit, faults []fault.Fault, set [][]logic.Vector) ([][]logic.Vector, Stats) {
	st := Stats{SequencesBefore: len(set), VectorsBefore: countVectors(set)}
	out, detected := trimTail(c, faults, Sequences(c, faults, set))
	st.SequencesAfter = len(out)
	st.VectorsAfter = countVectors(out)
	st.Detected = detected
	return out, st
}

func countVectors(set [][]logic.Vector) int {
	n := 0
	for _, seq := range set {
		n += len(seq)
	}
	return n
}
