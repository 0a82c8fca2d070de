package hybrid

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gahitec/internal/fault"
	"gahitec/internal/obs"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// sameMetrics asserts two recorders agree on everything deterministic:
// every counter, span count and value distribution. Wall-clock phase
// durations are stripped first (stripWallClock), as in the resume tests.
func sameMetrics(t *testing.T, label string, want, got *obs.Recorder) {
	t.Helper()
	wm, gm := want.MetricsSnapshot(), got.MetricsSnapshot()
	stripWallClock(wm)
	stripWallClock(gm)
	if !reflect.DeepEqual(wm.Counters, gm.Counters) {
		t.Errorf("%s: counters diverged:\nserial:   %v\nparallel: %v", label, wm.Counters, gm.Counters)
	}
	if !reflect.DeepEqual(wm.Spans, gm.Spans) {
		t.Errorf("%s: spans diverged:\nserial:   %v\nparallel: %v", label, wm.Spans, gm.Spans)
	}
	if !reflect.DeepEqual(wm.Histograms, gm.Histograms) {
		t.Errorf("%s: histograms diverged:\nserial:   %+v\nparallel: %+v", label, wm.Histograms, gm.Histograms)
	}
}

// The ordered-commit contract: a parallel run's outputs are bit-identical
// to the serial run's for the same seed, whatever the worker count. The
// config uses work-bounded budgets (generous TimePerFault), as the Resume
// contract requires — wall-clock limits can bind differently under CPU
// contention.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	run := func(workers int) (*Result, *obs.Recorder) {
		rec := obs.New(nil)
		cfg := deterministicConfig(41)
		cfg.Obs = rec
		cfg.Audit = true
		cfg.Workers = workers
		return Run(c, faults, cfg), rec
	}

	serial, serialRec := run(1)
	for _, workers := range []int{2, 8} {
		par, parRec := run(workers)
		sameResults(t, serial, par)
		for i, f := range serial.Untestable {
			if par.Untestable[i] != f {
				t.Fatalf("workers=%d: untestable %d diverged", workers, i)
			}
		}
		if serial.Phases != par.Phases {
			t.Errorf("workers=%d: phase stats diverged:\nserial:   %+v\nparallel: %+v",
				workers, serial.Phases, par.Phases)
		}
		if !reflect.DeepEqual(serial.Detections, par.Detections) {
			t.Errorf("workers=%d: detection logs diverged", workers)
		}
		if serial.Audit.Confirmed != par.Audit.Confirmed || serial.Audit.Unverified != par.Audit.Unverified {
			t.Errorf("workers=%d: audit diverged: %+v vs %+v", workers, serial.Audit, par.Audit)
		}
		sameMetrics(t, fmt.Sprintf("workers=%d", workers), serialRec, parRec)
	}
}

// The preprocessing screen runs on the pool's ordered fan-out at every
// worker count: a multi-worker screen marks exactly the untestables the
// one-worker screen marks, in the same order, with the same phase counters
// and metrics.
func TestParallelPreprocessMatchesSerial(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	run := func(workers int) (*Result, *obs.Recorder) {
		rec := obs.New(nil)
		cfg := deterministicConfig(42)
		cfg.Obs = rec
		cfg.PreprocessUntestable = true
		cfg.Workers = workers
		return Run(c, faults, cfg), rec
	}
	serial, serialRec := run(1)
	par, parRec := run(4)
	sameResults(t, serial, par)
	if serial.Phases.Preprocessed != par.Phases.Preprocessed {
		t.Fatalf("preprocessed %d serially, %d in parallel",
			serial.Phases.Preprocessed, par.Phases.Preprocessed)
	}
	for i, f := range serial.Untestable {
		if par.Untestable[i] != f {
			t.Fatalf("untestable order diverged at %d", i)
		}
	}
	if serial.Phases != par.Phases {
		t.Errorf("phase stats diverged:\nserial:   %+v\nparallel: %+v", serial.Phases, par.Phases)
	}
	sameMetrics(t, "workers=4", serialRec, parRec)
}

// Resume under concurrency: interrupt a workers=4 run mid-pass (the
// SIGINT path), then resume with workers=1 and workers=8. Both resumed
// runs — and their merged telemetry — must equal the uninterrupted serial
// run's, so worker count provably stays outside the reproducibility
// contract even across an interrupt boundary.
func TestParallelResumeAcrossWorkerCounts(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	mkCfg := func(workers int, rec *obs.Recorder) Config {
		cfg := deterministicConfig(43)
		cfg.Workers = workers
		cfg.Obs = rec
		return cfg
	}

	fullRec := obs.New(nil)
	full := Run(c, faults, mkCfg(1, fullRec))

	// Interrupt a parallel run mid-merge: cancel once a handful of fault
	// boundaries have committed, keeping the last snapshot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	boundaries := 0
	cfg := mkCfg(4, obs.New(nil))
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
	if last == nil {
		t.Fatal("no snapshot emitted before interrupt")
	}

	for _, workers := range []int{1, 8} {
		rec := obs.New(nil)
		res, err := Resume(context.Background(), c, faults, mkCfg(workers, rec), last)
		if err != nil {
			t.Fatalf("resume with workers=%d: %v", workers, err)
		}
		sameResults(t, full, res)
		if full.Phases != res.Phases {
			t.Errorf("resume workers=%d: phase stats diverged:\nfull:    %+v\nresumed: %+v",
				workers, full.Phases, res.Phases)
		}
		sameMetrics(t, "resume", fullRec, rec)
	}
}

// Parallel progress reporting: the fault counter aggregates monotonically
// across workers (no backwards jumps), and each pass opens with the
// zero-ETA sentinel callback before any fault has committed.
func TestParallelProgressMonotone(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	var got []Progress
	cfg := deterministicConfig(44)
	cfg.Workers = 4
	cfg.Progress = func(p Progress) { got = append(got, p) }
	res := Run(c, faults, cfg)

	if len(got) == 0 {
		t.Fatal("no progress callbacks")
	}
	passStarts := 0
	prev := Progress{FaultIndex: -1}
	for i, p := range got {
		if p.Pass < prev.Pass {
			t.Fatalf("progress %d pass regressed: %+v after %+v", i, p, prev)
		}
		if p.Pass > prev.Pass {
			// First callback of the pass is the sentinel: nothing committed
			// yet, ETA unknown (rendered as "--:--" by cmd/atpg).
			passStarts++
			if p.ETA != 0 {
				t.Fatalf("progress %d: pass %d opened with ETA %s, want the zero sentinel", i, p.Pass, p.ETA)
			}
		} else if p.FaultIndex <= prev.FaultIndex {
			t.Fatalf("progress %d fault counter jumped backwards: %+v after %+v", i, p, prev)
		}
		if p.Detected < prev.Detected || p.Vectors < prev.Vectors {
			t.Fatalf("progress %d counters regressed: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	if passStarts != len(cfg.Passes) {
		t.Fatalf("%d pass-start sentinels for %d passes", passStarts, len(cfg.Passes))
	}
	if prev.Detected != res.Passes[len(res.Passes)-1].Detected {
		t.Errorf("final progress detected %d, result says %d",
			prev.Detected, res.Passes[len(res.Passes)-1].Detected)
	}
}

// An injected engine panic during a parallel run is isolated exactly as in
// the serial run: the affected faults are quarantined with crash-repro
// bundles and the run completes.
func TestParallelInjectedPanicQuarantined(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	hooks := runctl.NewHooks()
	hooks.Arm("generate", 0, runctl.ActPanic) // every search panics
	cfg := deterministicConfig(45)
	cfg.Workers = 4
	cfg.Hooks = hooks
	var bundles []*supervise.Bundle
	cfg.Bundle = func(b *supervise.Bundle) { bundles = append(bundles, b) }
	res := Run(c, faults, cfg)

	if res.Interrupted {
		t.Fatal("injected panics interrupted the parallel run")
	}
	if len(res.Passes) != len(cfg.Passes) {
		t.Fatalf("run stopped after %d of %d passes", len(res.Passes), len(cfg.Passes))
	}
	// Every committed targeted attempt panicked: once per fault per pass.
	if want := res.TotalFaults * len(cfg.Passes); res.Phases.Panics != want {
		t.Fatalf("Phases.Panics = %d, want %d", res.Phases.Panics, want)
	}
	if res.FirstPanic == "" {
		t.Fatal("FirstPanic empty")
	}
	if res.Retry.Quarantined != res.TotalFaults {
		t.Fatalf("%d faults quarantined, want all %d", res.Retry.Quarantined, res.TotalFaults)
	}
	if len(bundles) != res.TotalFaults {
		t.Fatalf("%d bundles captured, want one per fault (%d)", len(bundles), res.TotalFaults)
	}
	for _, q := range res.Quarantine {
		if q.Reason != ReasonPanic || q.Bundle == nil {
			t.Fatalf("quarantine entry missing panic reason or bundle: %+v", q)
		}
	}
}

// A stalled search in one worker is watchdog-preempted without stalling its
// siblings or the commit pipeline; the run completes with the stalled
// faults quarantined.
func TestParallelWatchdogPreemptsStalledWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock watchdog thresholds are unreliable under -short/-race slowdown")
	}
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	hooks := runctl.NewHooks()
	hooks.Arm("generate", 0, runctl.ActSleep, 30*time.Second) // every search stalls
	cfg := deterministicConfig(46)
	cfg.Passes = cfg.Passes[:1]
	cfg.Workers = 4
	cfg.Hooks = hooks
	cfg.Watchdog = supervise.Watchdog{Stall: 50 * time.Millisecond}

	start := time.Now()
	res := Run(c, faults, cfg)
	if el := time.Since(start); el > 20*time.Second {
		t.Errorf("run waited out the injected sleeps (%s) instead of preempting", el)
	}
	if res.Interrupted {
		t.Fatal("preemptions interrupted the parallel run")
	}
	if res.Phases.Preempted != res.TotalFaults {
		t.Fatalf("Phases.Preempted = %d, want every fault (%d)", res.Phases.Preempted, res.TotalFaults)
	}
	for _, q := range res.Quarantine {
		if q.Reason != ReasonPreempt {
			t.Fatalf("quarantine reason %v, want preempt", q.Reason)
		}
	}
}

// Under forced memory pressure the scheduler throttles the worker pool
// before shedding any search effort, logs every decision with worker
// counts, and the whole throttling schedule is deterministic: two parallel
// runs with the same pressure schedule produce identical outputs and
// identical decision logs. (A governed parallel run may legitimately
// differ from the governed serial run under pressure — it sheds
// concurrency where the serial run sheds effort — which is exactly the
// graceful-degradation contract.)
func TestParallelSchedulerThrottlesUnderPressure(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	// Pressure holds for a few fault boundaries, then relief.
	pressureProbe := func() func() uint64 {
		n := 0
		return func() uint64 {
			n++
			if n > 3 && n <= 8 {
				return 500
			}
			return 10
		}
	}

	run := func(workers int) *Result {
		cfg := deterministicConfig(47)
		cfg.Workers = workers
		cfg.Governor = &supervise.Governor{SoftBytes: 100, Probe: pressureProbe()}
		return Run(c, faults, cfg)
	}
	a := run(4)
	b := run(4)
	sameResults(t, a, b)
	if !reflect.DeepEqual(a.Degradations, b.Degradations) {
		t.Fatalf("decision logs diverged:\n%+v\n%+v", a.Degradations, b.Degradations)
	}

	throttles := 0
	for _, d := range a.Degradations {
		if d.ToWorkers < d.FromWorkers {
			throttles++
			if d.To != "normal" {
				t.Fatalf("effort shed while still throttling workers: %+v", d)
			}
		}
		if d.To != "normal" && d.ToWorkers > 1 {
			t.Fatalf("effort shed before the pool was serial: %+v", d)
		}
	}
	if throttles == 0 {
		t.Fatalf("no worker-throttle decisions under pressure: %+v", a.Degradations)
	}

	// The serial governed run sheds effort directly: level changes only,
	// no worker fields on its decisions.
	serial := run(1)
	levelChanges := 0
	for _, d := range serial.Degradations {
		if d.FromWorkers != 0 || d.ToWorkers != 0 {
			t.Fatalf("serial governor decision carries worker fields: %+v", d)
		}
		levelChanges++
	}
	if levelChanges == 0 {
		t.Fatal("serial governed run logged no decisions under the same pressure")
	}
}
