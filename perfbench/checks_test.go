package main

import (
	"strings"
	"testing"

	"gahitec/internal/compact"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/hybrid"
	"gahitec/internal/logic"
)

// s27Run is a work-bounded GA-HITEC passes 1-2 run on s27 with its
// reference.
func s27Run(t *testing.T) (*refSim, []fault.Fault, *hybrid.Result) {
	t.Helper()
	c, r := s27(t)
	faults := fault.Collapse(c)
	res := hybrid.Run(c, faults, gaTable2Config(c))
	if err := checkEngineResult(r, faults, res, 1); err != nil {
		t.Fatalf("the unmodified run fails its check: %v", err)
	}
	return r, faults, res
}

func copyResult(res *hybrid.Result) *hybrid.Result {
	cp := *res
	cp.Detections = append([]faultsim.Detection(nil), res.Detections...)
	cp.Untestable = append([]fault.Fault(nil), res.Untestable...)
	cp.Passes = append([]hybrid.PassStats(nil), res.Passes...)
	cp.TestSet = nil
	for _, seq := range res.TestSet {
		cp.TestSet = append(cp.TestSet, append([]logic.Vector(nil), seq...))
	}
	return &cp
}

func wantError(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("the check accepted %s", what)
	}
	t.Logf("%s: %v", what, err)
}

func TestCheckRejectsDroppedDetection(t *testing.T) {
	r, faults, res := s27Run(t)
	bad := copyResult(res)
	bad.Detections = bad.Detections[1:]
	wantError(t, checkEngineResult(r, faults, bad, 1), "a dropped detection")
}

func TestCheckRejectsSpuriousDetection(t *testing.T) {
	r, faults, res := s27Run(t)
	bad := copyResult(res)
	spurious := stem(t, r.c, "G17", logic.One) // undetectable, see refsim_test.go
	bad.Detections = append(bad.Detections, faultsim.Detection{Fault: spurious, Vector: 0})
	bad.Passes[len(bad.Passes)-1].Detected++
	wantError(t, checkEngineResult(r, faults, bad, 1), "a spurious detection claim")
}

func TestCheckRejectsSpuriousUntestable(t *testing.T) {
	r, faults, res := s27Run(t)
	bad := copyResult(res)
	bad.Untestable = append(bad.Untestable, res.Detections[0].Fault)
	wantError(t, checkEngineResult(r, faults, bad, 1), "an untestable claim for a detected fault")

	// A claim the test set does not refute but a random vector does: any
	// vector with G0=1 and G3=0 detects G17 s-a-0 (refsim_test.go).
	f := stem(t, r.c, "G17", logic.Zero)
	wantError(t, checkUntestable(r, []fault.Fault{f}, nil, 1), "an untestable claim random vectors refute")
}

func TestCheckRejectsExtraVector(t *testing.T) {
	r, faults, res := s27Run(t)
	bad := copyResult(res)
	last := len(bad.TestSet) - 1
	bad.TestSet[last] = append(bad.TestSet[last], bad.TestSet[last][0])
	wantError(t, checkEngineResult(r, faults, bad, 1), "an extra vector in the test set")

	out, st := compact.Run(r.c, faults, res.TestSet)
	in := len(r.detect(faults, res.TestSet))
	if err := checkCompaction(r, faults, res.TestSet, out, st, in, res.Untestable, 1); err != nil {
		t.Fatalf("the unmodified compaction fails its check: %v", err)
	}
	out[0] = append(append([]logic.Vector(nil), out[0]...), out[0][0])
	st.VectorsAfter++
	wantError(t, checkCompaction(r, faults, res.TestSet, out, st, in, res.Untestable, 1), "an extra vector in a compacted sequence")
}

func TestCheckRejectsCompactionThatLosesAFault(t *testing.T) {
	r, faults, res := s27Run(t)
	out, _ := compact.Run(r.c, faults, res.TestSet)
	in := len(r.detect(faults, res.TestSet))
	// Every sequence compaction keeps is needed for coverage, so dropping
	// the first loses at least one fault. The reported statistics are made
	// consistent with the smaller set, so only the coverage check can fail.
	lossy := out[1:]
	st := compact.Stats{
		SequencesBefore: len(res.TestSet), SequencesAfter: len(lossy),
		VectorsBefore: len(flatten(res.TestSet)), VectorsAfter: len(flatten(lossy)),
		Detected: len(r.detect(faults, lossy)),
	}
	err := checkCompaction(r, faults, res.TestSet, lossy, st, in, res.Untestable, 1)
	wantError(t, err, "a compacted set that loses a fault")
	if !strings.Contains(err.Error(), "detects") {
		t.Fatalf("rejected for another reason: %v", err)
	}
}
