package jobq

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"gahitec/internal/bench"
	"gahitec/internal/circuits"
	"gahitec/internal/durable"
	"gahitec/internal/fault"
	"gahitec/internal/hybrid"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/pattern"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// Runner drains a Queue: it claims eligible jobs up to the slot budget and
// executes each through internal/hybrid under per-job supervision. Graceful
// degradation is layered: every run builds its own supervise.Scheduler from
// the Governor settings and probes the whole-process heap, so global memory
// pressure makes every run shed its own workers first (fleet-wide because
// the heap is shared) and GA effort only at one worker; on top of that, an
// optional Fleet scheduler
// throttles how many job slots the runner fills at all. Admission control —
// refusing new work outright — is the daemon's job, upstream of the runner.
type Runner struct {
	Queue *Queue

	// Slots is the concurrent-job budget (default 1).
	Slots int

	// Watchdog and Governor supervise every attempt (per-job copies, shared
	// thresholds). The zero values disable them.
	Watchdog supervise.Watchdog
	Governor supervise.Governor

	// Fleet, if enabled, throttles the number of filled job slots under
	// memory pressure, sampled at scheduling points. Per-job shedding (see
	// above) reacts first; the fleet scheduler is the backstop that stops
	// admitting claimed work to new slots.
	Fleet *supervise.Scheduler

	// Hooks is the process-level fault-injection harness
	// (GAHITEC_FAULT_INJECT); a job's Spec.InjectSpec overrides it for that
	// job. InjectSpec is the raw spec behind Hooks, recorded in bundles.
	Hooks      *runctl.Hooks
	InjectSpec string

	// Logf reports attempt-level events (default: discard).
	Logf func(format string, args ...any)

	// Obs, if non-nil, aggregates fleet counters (jobs started, completed,
	// failed, dead-lettered, released) for /debug/obs.
	Obs *obs.Recorder
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run drains the queue until ctx is cancelled, then waits for in-flight
// attempts to interrupt, checkpoint and release their jobs. It never
// returns a running queue: after Run, every job is pending or terminal.
func (r *Runner) Run(ctx context.Context) {
	slots := r.Slots
	if slots < 1 {
		slots = 1
	}
	finished := make(chan struct{}, slots)
	var wg sync.WaitGroup
	active := 0
	for ctx.Err() == nil {
		limit := slots
		if r.Fleet.Enabled() {
			if _, w := r.Fleet.Sample(0); w < limit {
				limit = w
			}
		}
		var wait time.Duration
		for active < limit {
			j, hint := r.Queue.Claim()
			if j == nil {
				wait = hint
				break
			}
			active++
			wg.Add(1)
			go func(j *Job) {
				defer wg.Done()
				r.execute(ctx, j)
				finished <- struct{}{}
			}(j)
		}
		poll := 500 * time.Millisecond
		if wait > 0 && wait < poll {
			poll = wait
		}
		timer := time.NewTimer(poll)
		select {
		case <-ctx.Done():
		case <-finished:
			active--
		case <-r.Queue.Wake():
		case <-timer.C:
		}
		timer.Stop()
	}
	// finished is buffered to the slot budget, so workers never block on it
	// even when nobody drains; waiting on the group alone is sufficient.
	wg.Wait()
}

// hooksFor resolves the injection harness for one attempt: the job's own
// spec wins, else the process-level harness. The job harness is parsed once
// and cached so its call counters span attempts (attempts of one job never
// overlap, and the queue lock orders the cross-attempt handoff).
func (r *Runner) hooksFor(j *Job) (*runctl.Hooks, string) {
	if j.Spec.InjectSpec != "" {
		if j.hooks == nil {
			h, err := runctl.ParseInjectSpec(j.Spec.InjectSpec)
			if err != nil { // validated at submit; cannot happen
				return nil, ""
			}
			j.hooks = h
		}
		return j.hooks, j.Spec.InjectSpec
	}
	return r.Hooks, r.InjectSpec
}

// execute runs one attempt of one claimed job and applies exactly one queue
// transition: Complete, Fail, Release (interrupted by shutdown) or
// MarkCancelled. A panic anywhere in the attempt is charged as a failed
// attempt, never allowed to kill the daemon.
func (r *Runner) execute(ctx context.Context, j *Job) {
	r.Obs.Counter("jobq.attempts", 1)
	// Charge the attempt's wall clock to the job's tenant whichever way the
	// attempt ends — completion, failure, panic, or shutdown release. Fair
	// sharing prices future claims off this charge, so an attempt that
	// escapes the meter would let its tenant run for free.
	start := time.Now()
	defer func() { r.Queue.ChargeCPU(j, time.Since(start)) }()
	defer func() {
		if p := recover(); p != nil {
			r.logf("jobq: %s: attempt panicked: %v\n%s", j.ID, p, debug.Stack())
			r.fail(j, fmt.Errorf("attempt panicked: %v", p), false)
		}
	}()
	hooks, injectSpec := r.hooksFor(j)
	if hooks.Enter("jobq.attempt") == runctl.ActFail {
		r.fail(j, runctl.InjectedFailure{Site: "jobq.attempt"}, false)
		return
	}
	c, err := j.circuit()
	if err != nil {
		// No retry fixes a netlist that does not parse: straight to
		// dead-letter.
		r.fail(j, err, true)
		return
	}
	faults := fault.Collapse(c)
	cfg := r.config(c, j.Spec)
	cfg.Hooks = hooks
	cfg.InjectSpec = injectSpec

	// The attempt context layers user cancellation over daemon shutdown.
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if r.Queue.setCancel(j, cancel) {
		cancel() // cancel arrived between claim and start
	}
	defer r.Queue.setCancel(j, nil)

	// Telemetry appends to the job's trace through the retrying sink; a
	// transient write failure is retried with backoff, a persistent one
	// degrades the recorder (events stop, metrics continue) without
	// failing the attempt.
	tail, err := OpenTail(j.TracePath())
	if err != nil {
		r.fail(j, err, false)
		return
	}
	j.tail.Store(tail)
	defer func() {
		j.tail.Store(nil)
		tail.Close()
	}()
	rec := obs.New(&runctl.RetryWriter{W: tail, Hooks: hooks, Site: "trace.write"})
	rec.SetRunID(j.RunID)
	cfg.Obs = rec
	cfg.RunID = j.RunID

	// Checkpoint journal: the durability contract. Writes retry with
	// backoff; if the disk stays broken the attempt degrades to running
	// without checkpoints (and says so) rather than aborting.
	ckPath := filepath.Join(j.Dir, "checkpoint.json")
	ckptDown := false
	cfg.Checkpoint = func(ck *hybrid.Checkpoint) {
		if ckptDown {
			return
		}
		if err := durable.SaveJSONRetry(r.Queue.fsys, hooks, "checkpoint.write",
			ckPath, durable.KindCheckpoint, ck); err != nil {
			ckptDown = true
			r.logf("jobq: %s: checkpoint: %v; continuing without checkpointing", j.ID, err)
		}
	}

	// Crash-repro bundles publish into the job directory — the dead-letter
	// artifact a client downloads. Same retry-then-degrade policy.
	if err := os.MkdirAll(j.BundleDir(), 0o755); err != nil {
		r.fail(j, err, false)
		return
	}
	next := 1
	cfg.Bundle = func(b *supervise.Bundle) {
		var p string
		err := runctl.Retry(runctl.WriteAttempts, runctl.WriteBackoff, func() error {
			if hooks.Enter("bundle.publish") == runctl.ActFail {
				return runctl.InjectedFailure{Site: "bundle.publish"}
			}
			var ord int
			var err error
			p, ord, err = supervise.SaveBundleInFS(r.Queue.fsys, j.BundleDir(), b, next)
			if err == nil {
				next = ord + 1
			}
			return err
		})
		if err != nil {
			r.logf("jobq: %s: bundle: %v; continuing without the bundle", j.ID, err)
			return
		}
		r.logf("jobq: %s: crash-repro bundle written to %s", j.ID, p)
	}
	cfg.Progress = func(p hybrid.Progress) { j.progress.Store(&p) }

	// Resume from the last attempt's checkpoint when one exists; a journal
	// that fails its integrity check or does not validate is quarantined —
	// to corrupt/ with a report, never silently deleted — and the job
	// restarts from scratch: a corrupt checkpoint must cost progress, not
	// park the job, and must leave evidence, not vanish.
	var res *hybrid.Result
	if _, serr := os.Stat(ckPath); serr == nil {
		var ck hybrid.Checkpoint
		lerr := durable.LoadJSON(r.Queue.fsys, ckPath, durable.KindCheckpoint, &ck)
		if lerr == nil {
			res, lerr = hybrid.Resume(jctx, c, faults, cfg, &ck)
		}
		if lerr != nil {
			if moved, _, qerr := durable.Quarantine(r.Queue.dir, ckPath, lerr); qerr != nil {
				r.logf("jobq: %s: checkpoint rejected: %v; quarantine failed (%v), discarding", j.ID, lerr, qerr)
				os.Remove(ckPath)
			} else {
				r.Queue.NoteQuarantined(1)
				r.logf("jobq: %s: checkpoint rejected: %v; quarantined to %s, restarting from scratch", j.ID, lerr, moved)
			}
			res = hybrid.RunCtx(jctx, c, faults, cfg)
		}
	} else {
		res = hybrid.RunCtx(jctx, c, faults, cfg)
	}

	if res.Interrupted {
		// hybrid already emitted its final checkpoint; park accordingly.
		if r.Queue.userCancelled(j) {
			r.Obs.Counter("jobq.cancelled", 1)
			r.logf("jobq: %s: cancelled", j.ID)
			r.Queue.MarkCancelled(j)
		} else {
			r.Obs.Counter("jobq.released", 1)
			r.logf("jobq: %s: interrupted; released with checkpoint", j.ID)
			r.Queue.Release(j)
		}
		return
	}

	if err := writeArtifacts(r.Queue.fsys, j, c, res, rec); err != nil {
		r.fail(j, err, false)
		return
	}
	if hooks.Enter("jobq.finish") == runctl.ActFail {
		r.fail(j, runctl.InjectedFailure{Site: "jobq.finish"}, false)
		return
	}
	os.Remove(ckPath) // the journal has served its purpose
	// Fold the run's engine metrics (spans, phase times, histograms) into
	// the fleet recorder so the daemon's /metrics aggregates them. Exactly
	// once per job, at completion: the final snapshot already includes any
	// checkpoint-restored totals, so merging earlier attempts too would
	// double-count resumed work.
	if err := r.Obs.MergeMetrics(rec.MetricsSnapshot()); err != nil {
		r.logf("jobq: %s: fleet metrics merge: %v", j.ID, err)
	}
	r.Obs.Counter("jobq.completed", 1)
	r.logf("jobq: %s: done (%d/%d detected)", j.ID, detected(res), res.TotalFaults)
	if err := r.Queue.Complete(j); err != nil {
		r.logf("jobq: %s: journal: %v", j.ID, err)
	}
}

func (r *Runner) fail(j *Job, cause error, permanent bool) {
	if err := r.Queue.Fail(j, cause, permanent); err != nil {
		r.logf("jobq: %s: journal: %v", j.ID, err)
	}
	info, _ := r.Queue.Info(j.ID)
	if info.Status.State == Dead {
		r.Obs.Counter("jobq.dead", 1)
		r.logf("jobq: %s: dead-lettered after %d attempt(s): %v", j.ID, info.Status.Attempts, cause)
	} else {
		r.Obs.Counter("jobq.failed", 1)
		r.logf("jobq: %s: attempt %d failed, retrying: %v", j.ID, info.Status.Attempts, cause)
	}
}

// userCancelled reports whether Cancel was requested for a running job.
func (q *Queue) userCancelled(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return j.userCancel
}

// circuit resolves the job's netlist: the embedded benchmark by name, or the
// inline netlist staged at submit. The staged file's envelope is verified
// before the parser sees a byte; netlists staged by earlier builds (no
// envelope) are accepted as-is.
func (j *Job) circuit() (*netlist.Circuit, error) {
	if j.Spec.Circuit != "" {
		return circuits.Get(j.Spec.Circuit)
	}
	payload, _, err := durable.ReadSealed(durable.Disk, filepath.Join(j.Dir, "circuit.bench"), durable.KindCircuit)
	if err != nil {
		return nil, err
	}
	return bench.Parse(bytes.NewReader(payload), j.ID)
}

// config maps a Spec onto a hybrid.Config, mirroring cmd/atpg's defaults.
func (r *Runner) config(c *netlist.Circuit, spec Spec) hybrid.Config {
	scale := spec.Scale
	if scale == 0 {
		scale = 0.03
	}
	x := spec.X
	if x == 0 {
		x = 8 * c.SeqDepth()
	}
	var cfg hybrid.Config
	if spec.Mode == "hitec" {
		cfg = hybrid.HITECConfig(3, scale)
	} else {
		cfg = hybrid.GAHITECConfig(x, scale)
	}
	cfg.Seed = spec.Seed
	cfg.Workers = spec.Workers
	cfg.PreprocessUntestable = spec.Preprocess
	cfg.Audit = spec.Audit
	cfg.Retry = runctl.Escalation{MaxAttempts: spec.Retry}
	cfg.CheckpointEvery = spec.CheckpointEvery
	cfg.Watchdog = r.Watchdog
	if r.Governor.SoftBytes > 0 || r.Governor.HardBytes > 0 {
		g := r.Governor
		cfg.Governor = &g
	}
	return cfg
}

// PassSummary is one pass of Summary: the paper's Det/Vec/Unt columns
// without the wall-clock column, so the summary compares bit-identical
// across interrupted+resumed and uninterrupted runs.
type PassSummary struct {
	Pass       int `json:"pass"`
	Detected   int `json:"detected"`
	Vectors    int `json:"vectors"`
	Untestable int `json:"untestable"`
	Aborted    int `json:"aborted"`
}

// Summary is result.json: the deterministic outcome of a completed job.
// Every field except ElapsedMS is part of the reproducibility contract —
// equal for the same spec whether or not the run was interrupted and
// resumed (per-fault wall-clock limits permitting).
type Summary struct {
	Circuit     string            `json:"circuit"`
	TotalFaults int               `json:"total_faults"`
	Detected    int               `json:"detected"`
	Untestable  int               `json:"untestable"`
	Undecided   int               `json:"undecided"`
	Coverage    float64           `json:"coverage"`
	Sequences   int               `json:"sequences"`
	Vectors     int               `json:"vectors"`
	Passes      []PassSummary     `json:"passes"`
	Phases      hybrid.PhaseStats `json:"phases"`
	Quarantined int               `json:"quarantined,omitempty"`

	// ElapsedMS is wall clock: the one field excluded from the determinism
	// contract (it necessarily differs across interrupted runs).
	ElapsedMS int64 `json:"elapsed_ms"`
}

func detected(res *hybrid.Result) int {
	if len(res.Passes) == 0 {
		return 0
	}
	return res.Passes[len(res.Passes)-1].Detected
}

// writeArtifacts publishes a completed run: tests.txt (the pattern-format
// test set), result.json (the deterministic summary) and metrics.json (the
// merged obs metrics, checkpoint-restored counts included). All three are
// sealed in checksummed envelopes and written atomically, so a crash
// mid-publish leaves complete old artifacts or complete new ones, never torn
// files — and a later bit flip in any of them is detectable.
func writeArtifacts(fsys durable.FS, j *Job, c *netlist.Circuit, res *hybrid.Result, rec *obs.Recorder) error {
	set := &pattern.Set{Circuit: c.Name}
	for _, pi := range c.PIs {
		set.Inputs = append(set.Inputs, c.Nodes[pi].Name)
	}
	for i, seq := range res.TestSet {
		q := pattern.Sequence{Vectors: seq}
		if i < len(res.Targets) {
			q.Target = res.Targets[i].String(c)
		}
		set.Sequences = append(set.Sequences, q)
	}
	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		return fmt.Errorf("jobq: render tests: %w", err)
	}
	if err := durable.WriteSealed(fsys, filepath.Join(j.Dir, "tests.txt"),
		durable.KindTests, buf.Bytes()); err != nil {
		return err
	}

	var elapsed time.Duration
	sum := &Summary{
		Circuit:     c.Name,
		TotalFaults: res.TotalFaults,
		Detected:    detected(res),
		Untestable:  len(res.Untestable),
		Coverage:    res.FaultCoverage(),
		Sequences:   len(res.TestSet),
		Vectors:     len(res.Vectors()),
		Phases:      res.Phases,
		Quarantined: len(res.Quarantine),
	}
	for _, p := range res.Passes {
		sum.Passes = append(sum.Passes, PassSummary{
			Pass: p.Pass, Detected: p.Detected, Vectors: p.Vectors,
			Untestable: p.Untestable, Aborted: p.Aborted,
		})
		sum.Undecided = p.Aborted
		elapsed = p.Elapsed
	}
	sum.ElapsedMS = elapsed.Milliseconds()
	if err := durable.SaveJSON(fsys, filepath.Join(j.Dir, "result.json"), durable.KindResult, sum); err != nil {
		return err
	}
	return durable.SaveJSON(fsys, filepath.Join(j.Dir, "metrics.json"), durable.KindMetrics, rec.MetricsSnapshot())
}
