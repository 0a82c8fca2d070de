package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"gahitec/internal/circuits"
	"gahitec/internal/compact"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/hybrid"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/pattern"
)

// compactInput is the compact_am2910 input: the test set of work-bounded
// GA-HITEC passes 1-2 on am2910 with engine seed 1, in the program's pattern
// format, with the run's untestable faults in "# untestable:" comment lines.
// Regenerate it with
//
//	.bench_build/perfbench --write-compact-input perfbench/inputs/am2910_gahitec12_seed1.txt
//
//go:embed inputs/am2910_gahitec12_seed1.txt
var compactInput []byte

// writeCompactInput regenerates the compact_am2910 input file.
func writeCompactInput(path string) error {
	c, err := circuits.Get("am2910")
	if err != nil {
		return err
	}
	faults := fault.Collapse(c)
	res := hybrid.Run(c, faults, gaTable2Config(c))
	set := &pattern.Set{Circuit: c.Name}
	for _, pi := range c.PIs {
		set.Inputs = append(set.Inputs, c.Nodes[pi].Name)
	}
	for i, seq := range res.TestSet {
		set.Sequences = append(set.Sequences, pattern.Sequence{Target: res.Targets[i].String(c), Vectors: seq})
	}
	var b bytes.Buffer
	last := res.Passes[len(res.Passes)-1]
	fmt.Fprintf(&b, "# GA-HITEC passes 1-2, work-bounded, engine seed %d: %d sequences, %d vectors, %d of %d faults detected\n",
		engineSeed, len(res.TestSet), last.Vectors, last.Detected, len(faults))
	for _, f := range res.Untestable {
		fmt.Fprintf(&b, "# untestable: %s\n", f.String(c))
	}
	if err := set.Write(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// readCompactInput parses the input test set and its untestable list.
func readCompactInput(c *netlist.Circuit, faults []fault.Fault, data []byte) ([][]logic.Vector, []fault.Fault, error) {
	set, err := pattern.Read(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	if set.Circuit != c.Name || len(set.Inputs) != len(c.PIs) {
		return nil, nil, fmt.Errorf("input is for %s with %d inputs, not %s", set.Circuit, len(set.Inputs), c.Name)
	}
	seqs := setVectors(set)
	byName := make(map[string]fault.Fault, len(faults))
	for _, f := range faults {
		byName[f.String(c)] = f
	}
	var untestable []fault.Fault
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "# untestable: ")
		if !ok {
			continue
		}
		f, ok := byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("untestable fault %q is not in the collapsed list", name)
		}
		untestable = append(untestable, f)
	}
	return seqs, untestable, sc.Err()
}

type compactWorkload struct {
	c          *netlist.Circuit
	faults     []fault.Fault
	in         [][]logic.Vector
	untestable []fault.Fault
	seed       int64

	first *compactRun // the first round's output, checked against ref
}

// compactRun is one round's output.
type compactRun struct {
	out          [][]logic.Vector
	st           compact.Stats
	wallS, busyS float64 // wall time, and wall time less host steal

	// Traced rounds only.
	rec               *obs.Recorder
	sequencesS, trimS float64
}

func setupCompactAm2910(seed int64) (workload, error) {
	c, err := circuits.Get("am2910")
	if err != nil {
		return nil, err
	}
	faults := fault.Collapse(c)
	in, untestable, err := readCompactInput(c, faults, compactInput)
	if err != nil {
		return nil, err
	}
	return &compactWorkload{c: c, faults: faults, in: in, untestable: untestable, seed: seed}, nil
}

func (w *compactWorkload) close() {}

// round runs compact.Run. A traced round makes the same three calls
// compact.Run makes — Sequences, TrimTail, and a final grading with the
// fault simulator — with a timer around each and the recorder on the
// simulator.
func (w *compactWorkload) round(traced bool) (outcome, error) {
	r := &compactRun{}
	clk := startClock()
	t0 := clk.wall
	if !traced {
		r.out, r.st = compact.Run(w.c, w.faults, w.in)
		r.wallS, r.busyS = clk.elapsed()
		return outcome{raw: r}, nil
	}
	seqs := compact.Sequences(w.c, w.faults, w.in)
	t1 := time.Now()
	r.out = compact.TrimTail(w.c, w.faults, seqs)
	t2 := time.Now()
	r.rec = obs.New(nil)
	fs := faultsim.New(w.c, w.faults)
	fs.SetObs(r.rec)
	for _, seq := range r.out {
		fs.ApplySequence(seq)
	}
	r.wallS, r.busyS = clk.elapsed()
	r.sequencesS, r.trimS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	r.st = compact.Stats{
		SequencesBefore: len(w.in), SequencesAfter: len(r.out),
		VectorsBefore: len(flatten(w.in)), VectorsAfter: len(flatten(r.out)),
		Detected: fs.NumDetected(),
	}
	return outcome{raw: r}, nil
}

func (w *compactWorkload) finish(out *outcome) error {
	r := out.raw.(*compactRun)
	out.ops = 1
	out.jobMS = []float64{r.busyS * 1000}
	out.detected, out.vectors, out.untestable = r.st.Detected, r.st.VectorsAfter, len(w.untestable)
	var err error
	if w.first == nil {
		w.first = r
		var ref *refSim
		if ref, err = newRefSim(w.c); err != nil {
			return err
		}
		inDetected := len(ref.detect(w.faults, w.in))
		err = checkCompaction(ref, w.faults, w.in, r.out, r.st, inDetected, w.untestable, w.seed)
	} else if !reflect.DeepEqual(r.out, w.first.out) || r.st != w.first.st {
		err = fmt.Errorf("compacted set differs from the first round's")
	}
	if err != nil {
		out.failed = 1
		reportFailure("compaction", err)
	}
	if r.rec != nil {
		m := r.rec.MetricsSnapshot()
		grade := float64(m.PhaseNS["fault_sim"]) / 1e9
		out.layers = map[string]float64{
			"compact.sequences_s":  r.sequencesS,
			"compact.trim_s":       r.trimS,
			"compact.dropped":      float64(len(w.in) - len(r.out)),
			"faultsim.grade_s":     grade,
			"faultsim.grade_calls": float64(m.Spans["fault_sim"]),
			"trace.accounted_pct":  100 * (r.sequencesS + r.trimS + grade) / r.wallS,
		}
	}
	return nil
}
