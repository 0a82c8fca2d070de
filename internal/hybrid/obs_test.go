package hybrid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"gahitec/internal/fault"
	"gahitec/internal/obs"
)

// The reconciliation contract: the telemetry recorder's span and outcome
// counters are emitted at exactly the boundaries where the Fig. 1 phase
// counters increment, so the two independent accountings must agree.
func TestObsReconcilesWithPhaseStats(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	var buf bytes.Buffer
	rec := obs.New(&buf)
	cfg := GAHITECConfig(16, 0.05)
	cfg.Seed = 21
	cfg.Obs = rec
	res := Run(c, faults, cfg)
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder sink error: %v", err)
	}
	m := rec.MetricsSnapshot()

	checks := []struct {
		name string
		got  int64
		want int
	}{
		{`Spans["target"]`, m.Spans["target"], res.Phases.Targeted},
		{`Counters["excite_prop:success"]`, m.Counters["excite_prop:success"], res.Phases.ExciteProp},
		{`Spans["ga_justify"]`, m.Spans["ga_justify"], res.Phases.GAJustifyCalls},
		{`Counters["ga_justify:found"]`, m.Counters["ga_justify:found"], res.Phases.GAJustifyFound},
		{`Spans["det_justify"]`, m.Spans["det_justify"], res.Phases.DetJustifyCalls},
		{`Counters["det_justify:found"]`, m.Counters["det_justify:found"], res.Phases.DetJustifyFound},
		{`Counters["verify:reject"]`, m.Counters["verify:reject"], res.Phases.VerifyFailures},
		{`Counters["incidental_detects"]`, m.Counters["incidental_detects"], res.Phases.IncidentalDetects},
	}
	for _, ck := range checks {
		if ck.got != int64(ck.want) {
			t.Errorf("%s = %d, PhaseStats says %d", ck.name, ck.got, ck.want)
		}
	}
	if res.Phases.Targeted == 0 || res.Phases.GAJustifyCalls == 0 {
		t.Fatal("run exercised no targets; reconciliation test is vacuous")
	}
	// One accepted sequence length observed per test in the set.
	if h := m.Histograms["seq_len"]; h == nil || h.Count != int64(len(res.TestSet)) {
		t.Errorf("seq_len histogram count != len(TestSet)=%d: %+v", len(res.TestSet), h)
	}
	// Every fault-simulator grading is one span.
	if m.Spans["fault_sim"] != int64(len(res.TestSet)) {
		t.Errorf("fault_sim spans = %d, test set has %d sequences",
			m.Spans["fault_sim"], len(res.TestSet))
	}

	// The event stream is parseable NDJSON with strictly increasing Seq.
	out := buf.String()
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lastSeq := uint64(0)
	lines := 0
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", lines, err, sc.Text())
		}
		if e.Seq <= lastSeq {
			t.Fatalf("Seq not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		lines++
	}
	if lines == 0 {
		t.Fatal("no events emitted")
	}
	for _, want := range []string{`"target"`, `"ga_justify"`, `"fault_sim"`, `"pass_end"`} {
		if !strings.Contains(out, want) {
			t.Errorf("stream missing %s", want)
		}
	}
}

// Audit telemetry reconciles with the audit report.
func TestObsAuditCounters(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	rec := obs.New(nil)
	cfg := GAHITECConfig(16, 0.05)
	cfg.Seed = 22
	cfg.Obs = rec
	cfg.Audit = true
	res := Run(c, faults, cfg)
	if res.Audit == nil {
		t.Fatal("audit report missing")
	}
	m := rec.MetricsSnapshot()
	if got := m.Counters["audit.confirmed"]; got != int64(res.Audit.Confirmed) {
		t.Errorf("audit.confirmed = %d, report says %d", got, res.Audit.Confirmed)
	}
	if m.Spans["audit"] == 0 {
		t.Error("no audit span recorded")
	}
}

// Progress callbacks fire at every fault boundary with sane monotone values.
func TestProgressCallback(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	var got []Progress
	cfg := GAHITECConfig(16, 0.05)
	cfg.Seed = 23
	cfg.Progress = func(p Progress) { got = append(got, p) }
	res := Run(c, faults, cfg)

	if len(got) == 0 {
		t.Fatal("no progress callbacks")
	}
	prev := Progress{}
	for i, p := range got {
		if p.Pass < prev.Pass || (p.Pass == prev.Pass && p.FaultIndex <= prev.FaultIndex) {
			t.Fatalf("progress %d not monotone: %+v after %+v", i, p, prev)
		}
		if p.Detected < prev.Detected || p.Vectors < prev.Vectors {
			t.Fatalf("progress %d counters regressed: %+v after %+v", i, p, prev)
		}
		if p.TotalFaults != res.TotalFaults {
			t.Fatalf("progress %d total faults %d != %d", i, p.TotalFaults, res.TotalFaults)
		}
		if cov := p.Coverage(); cov < 0 || cov > 1 {
			t.Fatalf("progress %d coverage %f out of range", i, cov)
		}
		prev = p
	}
	last := got[len(got)-1]
	if last.Detected != res.Passes[len(res.Passes)-1].Detected {
		t.Errorf("final progress detected %d, result says %d",
			last.Detected, res.Passes[len(res.Passes)-1].Detected)
	}
}

// stripWallClock removes the wall-clock-dependent parts of a metrics
// snapshot: an interrupted+resumed run re-does the interrupted fault, so its
// phase durations legitimately differ from an uninterrupted run's, while
// every count and every value-distribution must match exactly.
func stripWallClock(m *obs.Metrics) {
	m.PhaseNS = nil
	for name := range m.Histograms {
		if strings.HasPrefix(name, "phase_ms:") {
			delete(m.Histograms, name)
		}
	}
}

// The checkpoint carries the metrics snapshot: interrupt a run mid-pass,
// resume it with a fresh recorder, and the merged final metrics must equal
// the uninterrupted run's, counter for counter.
func TestObsResumeMetricsEqualUninterrupted(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	mkCfg := func(rec *obs.Recorder) Config {
		cfg := deterministicConfig(31)
		cfg.Obs = rec
		return cfg
	}

	fullRec := obs.New(nil)
	Run(c, faults, mkCfg(fullRec))
	want := fullRec.MetricsSnapshot()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	boundaries := 0
	partRec := obs.New(nil)
	cfg := mkCfg(partRec)
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(ck *Checkpoint) {
		last = ck
		boundaries++
		if boundaries == 5 {
			cancel()
		}
	}
	part := RunCtx(ctx, c, faults, cfg)
	if !part.Interrupted {
		t.Skip("run finished before the interrupt landed")
	}
	if last == nil || last.Obs == nil {
		t.Fatal("no metrics-bearing snapshot emitted before interrupt")
	}

	resumeRec := obs.New(nil)
	if _, err := Resume(context.Background(), c, faults, mkCfg(resumeRec), last); err != nil {
		t.Fatal(err)
	}
	got := resumeRec.MetricsSnapshot()

	stripWallClock(want)
	stripWallClock(got)
	if !reflect.DeepEqual(want.Counters, got.Counters) {
		t.Errorf("counters diverged:\nfull:    %v\nresumed: %v", want.Counters, got.Counters)
	}
	if !reflect.DeepEqual(want.Spans, got.Spans) {
		t.Errorf("spans diverged:\nfull:    %v\nresumed: %v", want.Spans, got.Spans)
	}
	if !reflect.DeepEqual(want.Histograms, got.Histograms) {
		t.Errorf("value histograms diverged:\nfull:    %+v\nresumed: %+v",
			want.Histograms, got.Histograms)
	}
}

// The target span covers the fault's whole search at every worker count:
// its time is at least the sum of its child phases.
func TestTargetSpanCoversSearch(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	for _, workers := range []int{1, 4} {
		rec := obs.New(nil)
		cfg := deterministicConfig(7)
		cfg.Passes = cfg.Passes[:1]
		cfg.Workers = workers
		cfg.Obs = rec
		Run(c, faults, cfg)
		m := rec.MetricsSnapshot()
		var children int64
		for _, p := range []string{"excite_prop", "ga_justify", "det_justify", "verify", "fault_sim"} {
			children += m.PhaseNS[p]
		}
		if children == 0 {
			t.Fatalf("workers=%d: no child phase time recorded", workers)
		}
		if target := m.PhaseNS["target"]; target < children {
			t.Errorf("workers=%d: target spans %v < child phases %v", workers, time.Duration(target), time.Duration(children))
		}
	}
}
