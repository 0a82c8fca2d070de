// Command atpg runs the hybrid (GA-HITEC) or deterministic (HITEC) test
// generator on a circuit and prints pass-by-pass statistics in the paper's
// Det / Vec / Time / Unt format.
//
// Usage:
//
//	atpg -circuit s298 [-mode gahitec|hitec] [-scale 0.03] [-x 64] [-seed 1]
//	atpg -bench path/to/netlist.bench -mode hitec
//	atpg -circuit div -o tests.txt        # also dump the test vectors
//
// Long runs are interruptible and resumable: with -checkpoint the run
// journals its state (atomically, as JSON) every -checkpoint-every faults
// and on SIGINT/SIGTERM, and -resume restarts from a journal mid-pass. A
// resumed run with the same seed and flags produces the same test set as an
// uninterrupted one (per-fault wall-clock limits permitting).
//
//	atpg -circuit div -checkpoint run.json     # ^C writes the journal
//	atpg -circuit div -resume run.json         # continues where it stopped
//
// The fault pipeline is parallel: -workers N (default GOMAXPROCS) runs up
// to N per-fault searches concurrently behind an ordered-commit merge, so
// the output — test set, statistics, telemetry, checkpoint journal — is
// bit-identical to the serial run's for the same seed. The worker count is
// outside the reproducibility contract: a journal written at one -workers
// value resumes correctly at any other, and with the memory governor armed
// the scheduler sheds workers before it sheds search effort.
//
//	atpg -circuit s298 -workers 4
//
// The generated test set can be independently verified: -audit replays
// every claimed detection against the serial reference simulator and
// demotes claims it cannot reproduce; -audit=strict additionally exits with
// status 3 when any claim miscompares. -retry N re-targets quarantined
// faults (budget-expired, panicked, or audit-demoted) up to N times with
// exponentially escalated per-fault budgets.
//
//	atpg -circuit s298 -audit -retry 2
//	atpg -circuit s298 -audit=strict    # CI gate: non-zero exit on miscompare
//
// The run is observable end to end: -trace streams one JSON event per line
// (NDJSON) for every phase span and GA generation, -metrics writes the
// aggregated counters and histograms as JSON when the run ends (metrics
// survive checkpoint/resume: a resumed run's final counters equal an
// uninterrupted run's), -progress prints a rate-limited live status line to
// stderr, and -pprof serves net/http/pprof plus /debug/vars and /debug/obs
// (the live metrics snapshot) on the given address.
//
//	atpg -circuit s298 -trace run.ndjson -metrics run.json -progress
//	atpg -circuit div -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile
//
// The run can be supervised: -watchdog-ceiling and -watchdog-stall arm a
// per-fault watchdog that hard-preempts a search exceeding its wall-clock
// ceiling or going heartbeat-silent, -mem-soft-mb/-mem-hard-mb arm a memory
// governor that deterministically degrades per-fault search effort under
// heap pressure, and -bundle-dir collects a crash-repro bundle for every
// panic, watchdog preemption, budget exhaustion or audit miscompare. A
// bundle replays deterministically in single-fault isolation:
//
//	atpg -circuit s298 -watchdog-stall 2s -bundle-dir bundles/
//	atpg -repro bundles/bundle-001-panic-n12-s13-sa1-p2.json   # exit 4 on mismatch
//
// Persisted artifacts — checkpoint journals, metrics snapshots, test-set
// dumps, crash-repro bundles — are sealed in a checksummed envelope (see
// internal/durable) and published atomically with directory fsync, so a
// crash or a flipped bit is detected on read instead of trusted. The fsck
// subcommand scans a data directory, verifies every artifact, repairs what
// it can (reseals legacy files, truncates torn NDJSON tails, sweeps
// abandoned temps) and quarantines what it cannot to corrupt/ alongside a
// report; it exits 5 when anything had to be quarantined:
//
//	atpg fsck atpgd-data          # verify and heal
//	atpg fsck -n atpgd-data       # scan only, change nothing
//
// A -resume pointed at a corrupt journal quarantines it and starts clean —
// with a notice — rather than resuming into garbage or aborting.
//
// The GAHITEC_FAULT_INJECT environment variable arms the runctl
// fault-injection harness (e.g. "generate:*:sleep=20ms",
// "faultsim.word:3:corrupt" or "vfs.write:2:torn=64"); it exists for the
// resilience integration tests.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gahitec/internal/bench"
	"gahitec/internal/circuits"
	"gahitec/internal/compact"
	"gahitec/internal/durable"
	"gahitec/internal/fault"
	"gahitec/internal/hybrid"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/obs/promexport"
	"gahitec/internal/pattern"
	"gahitec/internal/report"
	"gahitec/internal/runctl"
	"gahitec/internal/simgen"
	"gahitec/internal/supervise"
)

// exitInterrupted is the conventional exit status after SIGINT.
const exitInterrupted = 130

// exitAuditFailed is returned by -audit=strict when any detection claim
// fails independent verification.
const exitAuditFailed = 3

// exitReproMismatch is returned by -repro when the replay does not reproduce
// the outcome the bundle recorded.
const exitReproMismatch = 4

// exitFsckUnrepairable is returned by the fsck subcommand when any artifact
// had to be quarantined — damage was detected that repair could not undo
// without losing data. Repairs that lose nothing (resealing legacy
// artifacts, truncating torn NDJSON tails, sweeping abandoned temps) leave
// the exit status 0.
const exitFsckUnrepairable = 5

// auditMode is the -audit flag: a boolean flag ("-audit", "-audit=false")
// that also accepts the value "strict".
type auditMode struct {
	enabled bool
	strict  bool
}

func (a *auditMode) String() string {
	switch {
	case a.strict:
		return "strict"
	case a.enabled:
		return "true"
	}
	return "false"
}

func (a *auditMode) Set(s string) error {
	switch strings.ToLower(s) {
	case "", "1", "t", "true", "on", "yes":
		a.enabled, a.strict = true, false
	case "0", "f", "false", "off", "no":
		a.enabled, a.strict = false, false
	case "strict":
		a.enabled, a.strict = true, true
	default:
		return fmt.Errorf("must be true, false or strict")
	}
	return nil
}

// IsBoolFlag lets plain "-audit" enable the audit without a value.
func (a *auditMode) IsBoolFlag() bool { return true }

func main() {
	// Every path out of run returns here, so the output writer is always
	// flushed — an error exit never truncates what was already reported.
	out := bufio.NewWriter(os.Stdout)
	code := run(os.Args[1:], out, os.Stderr)
	out.Flush()
	os.Exit(code)
}

// run is the whole tool behind a testable seam: flags in, exit status out,
// all exits through a single return path.
func run(args []string, stdout, stderr io.Writer) (code int) {
	// Subcommands dispatch before flag parsing; everything else is the
	// classic flags-only invocation.
	if len(args) > 0 && args[0] == "fsck" {
		return runFsck(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("atpg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		circuitName = fs.String("circuit", "", "embedded benchmark name (see benchgen -list)")
		benchFile   = fs.String("bench", "", "path to a .bench netlist")
		mode        = fs.String("mode", "gahitec", "test generator: gahitec, hitec, simga or alternating")
		scale       = fs.Float64("scale", 0.03, "wall-clock scale for the paper's per-fault limits")
		x           = fs.Int("x", 0, "base GA sequence length (default 8x sequential depth)")
		seed        = fs.Int64("seed", 1, "random seed")
		out         = fs.String("o", "", "write the generated test vectors to this file")
		phases      = fs.Bool("phases", false, "print the Fig.1 phase trace")
		compactSet  = fs.Bool("compact", false, "compact the test set before writing/reporting")
		preprocess  = fs.Bool("preprocess", false, "screen untestable faults before pass 1")
		interactive = fs.Bool("interactive", false, "prompt between passes, as the original tool did")
		checkpoint  = fs.String("checkpoint", "", "journal run state to this file (written atomically; also on SIGINT/SIGTERM)")
		ckptEvery   = fs.Int("checkpoint-every", 16, "checkpoint cadence in targeted faults")
		resume      = fs.String("resume", "", "resume a gahitec/hitec run from this checkpoint journal")
		timeout     = fs.Duration("timeout", 0, "overall wall-clock budget for the run (0: none)")
		retries     = fs.Int("retry", 0, "retry quarantined faults up to N times with escalated budgets")
		traceOut    = fs.String("trace", "", "stream an NDJSON event trace of the run to this file")
		metricsOut  = fs.String("metrics", "", "write aggregated run metrics (JSON) to this file when the run ends")
		progressOn  = fs.Bool("progress", false, "print a live progress line to stderr at fault boundaries")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof, /debug/vars and /debug/obs on this address (e.g. localhost:6060)")
		traceMax    = fs.Int64("trace-max-bytes", 0, "rotate the -trace file, keeping roughly the last N bytes across two segments (0: unbounded)")
		runIDFlag   = fs.String("run-id", "", "run correlation ID stamped on telemetry (default: minted when telemetry is armed; a -resume with no -run-id keeps the journal's)")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent per-fault searches (gahitec/hitec modes); any value produces the same output as -workers 1")
		wdCeiling   = fs.Duration("watchdog-ceiling", 0, "hard-preempt any per-fault search running longer than this (0: off)")
		wdStall     = fs.Duration("watchdog-stall", 0, "hard-preempt any per-fault search heartbeat-silent for this long (0: off)")
		memSoftMB   = fs.Int("mem-soft-mb", 0, "heap size that triggers soft search degradation (0: off)")
		memHardMB   = fs.Int("mem-hard-mb", 0, "heap size that triggers hard search degradation (0: off)")
		bundleDir   = fs.String("bundle-dir", "", "write a crash-repro bundle here for every panic, preemption, budget exhaustion or audit miscompare")
		reproPath   = fs.String("repro", "", "replay a crash-repro bundle and verify it reproduces (exit 4 on mismatch)")
	)
	var auditFlag auditMode
	fs.Var(&auditFlag, "audit", "independently verify every detection on the serial reference simulator (true, false or strict)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "atpg: "+format+"\n", a...)
		return 1
	}

	// The run context carries both the overall budget and SIGINT/SIGTERM:
	// cancellation aborts the in-flight search via the engine budget and
	// the run emits its last consistent checkpoint before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var hooks *runctl.Hooks
	injectSpec := os.Getenv("GAHITEC_FAULT_INJECT")
	if injectSpec != "" {
		var err error
		if hooks, err = runctl.ParseInjectSpec(injectSpec); err != nil {
			return fail("%v", err)
		}
	}
	// Every durable artifact this run publishes goes through one filesystem
	// seam: the real disk, behind the fault-injection harness when armed, so
	// the crash-consistency tests can tear any write at any byte offset.
	dfs := durable.WithHooks(hooks)

	// The two simulation-first generators have no hybrid run to instrument;
	// reject their incompatible flags before any output file is created.
	if *reproPath == "" && (*mode == "simga" || *mode == "alternating") {
		if auditFlag.enabled || *retries > 0 {
			return fail("-audit and -retry require -mode gahitec or hitec")
		}
		if *traceOut != "" || *metricsOut != "" || *progressOn {
			return fail("-trace, -metrics and -progress require -mode gahitec or hitec")
		}
	}

	// Telemetry: one recorder feeds the NDJSON trace (-trace), the aggregated
	// metrics written at exit (-metrics), and the /debug/obs endpoint (-pprof
	// alone arms a metrics-only recorder so /debug/obs serves live counters).
	// With -trace-max-bytes the trace rotates in place, keeping the tail of
	// the run instead of growing without bound. The deferred finalizer runs
	// on every exit path — including an interrupt — so the trace is flushed
	// and the metrics written even at exit 130.
	var rec *obs.Recorder
	if *traceOut != "" || *metricsOut != "" || *pprofAddr != "" {
		var sink io.Writer
		var closeTrace func() error
		if *traceOut != "" {
			if *traceMax > 0 {
				rw, err := obs.NewRotatingWriter(*traceOut, *traceMax)
				if err != nil {
					return fail("%v", err)
				}
				sink, closeTrace = rw, rw.Close
			} else {
				f, err := os.Create(*traceOut)
				if err != nil {
					return fail("%v", err)
				}
				bw := bufio.NewWriter(f)
				sink = bw
				closeTrace = func() error {
					err := bw.Flush()
					if cerr := f.Close(); err == nil {
						err = cerr
					}
					return err
				}
			}
		}
		if sink != nil {
			// Trace appends go through the retrying writer: a transient
			// write failure (injectable at trace.write) is retried with
			// backoff, a persistent one degrades the recorder — events stop,
			// metrics keep accumulating — instead of failing the run.
			sink = &runctl.RetryWriter{W: sink, Hooks: hooks, Site: "trace.write"}
		}
		rec = obs.New(sink)
		defer func() {
			warn := func(what string, err error) {
				fmt.Fprintf(stderr, "atpg: %s: %v\n", what, err)
				if code == 0 {
					code = 1
				}
			}
			// A lost trace is degraded telemetry, not a failed run: the test
			// set and metrics are intact, so warn without touching the exit
			// code.
			if err := rec.Err(); err != nil {
				fmt.Fprintf(stderr, "atpg: trace: %v (events dropped; run unaffected)\n", err)
			}
			if closeTrace != nil {
				if err := closeTrace(); err != nil {
					fmt.Fprintf(stderr, "atpg: trace: %v (run unaffected)\n", err)
				}
			}
			if *metricsOut != "" {
				if err := durable.SaveJSON(dfs, *metricsOut, durable.KindMetrics, rec.MetricsSnapshot()); err != nil {
					warn("metrics", err)
				}
			}
		}()
	}
	if *pprofAddr != "" {
		shutdown, err := servePprof(ctx, *pprofAddr, rec, stderr)
		if err != nil {
			return fail("pprof: %v", err)
		}
		// Drain the server before run returns, so the port is free the
		// moment the caller gets the exit status.
		defer shutdown()
	}

	// -repro is a separate entry point: load the bundle, resolve its circuit
	// (the bundle names it; -circuit/-bench may override for an un-embedded
	// netlist) and replay the recorded failure in single-fault isolation.
	if *reproPath != "" {
		b, err := supervise.LoadBundle(*reproPath)
		if err != nil {
			return fail("%v", err)
		}
		cname := *circuitName
		if cname == "" && *benchFile == "" {
			cname = b.Circuit
		}
		c, err := loadCircuit(cname, *benchFile)
		if err != nil {
			return fail("%v", err)
		}
		rep, err := hybrid.Repro(ctx, c, b, rec)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "repro %s: %s fault n%d pin %d s-a-%s pass %d\n",
			filepath.Base(*reproPath), rep.Kind, b.Fault.Node, b.Fault.Pin, b.Fault.Stuck, b.Pass)
		if rep.Detail != "" {
			fmt.Fprintf(stdout, "  %s\n", rep.Detail)
		}
		if !rep.Match {
			fmt.Fprintf(stdout, "MISMATCH: expected %q, replay produced %q\n", rep.Expected, rep.Outcome)
			return exitReproMismatch
		}
		fmt.Fprintf(stdout, "reproduced: %q\n", rep.Outcome)
		return 0
	}

	c, err := loadCircuit(*circuitName, *benchFile)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintln(stdout, c)

	faults := fault.Collapse(c)
	fmt.Fprintf(stdout, "collapsed fault list: %d faults\n", len(faults))

	seqLen := *x
	if seqLen == 0 {
		seqLen = 8 * c.SeqDepth()
	}

	// The two simulation-first generators report a single summary line and
	// share the vector-dump path. They honor cancellation but have no
	// checkpoint journal — nor the audit/retry machinery (flag compatibility
	// was validated above, before the telemetry files were opened).
	switch *mode {
	case "simga":
		r := simgen.RunCtx(ctx, c, faults, simgen.Options{Seed: *seed, SeqLen: seqLen / 2, MaxRounds: 300})
		fmt.Fprintf(stdout, "\nsimulation-based GA: %d/%d detected (%.2f%%), %d vectors, %d rounds, %s\n",
			r.Detected, len(faults), 100*float64(r.Detected)/float64(len(faults)),
			r.Vectors(), r.Rounds, report.FormatDuration(r.Elapsed))
		return writeSet(stdout, fail, dfs, c, *out, nil, r.TestSet, faults, *compactSet)
	case "alternating":
		r := hybrid.RunAlternatingCtx(ctx, c, faults, hybrid.AlternatingConfig{
			Sim:             simgen.Options{SeqLen: seqLen / 2, MaxRounds: 300},
			DetTimePerFault: time.Duration(100 * *scale * float64(time.Second)),
			Seed:            *seed,
		})
		fmt.Fprintf(stdout, "\nalternating hybrid: %d/%d detected (%.2f%%), %d vectors, %d interludes, %s\n",
			r.Detected, len(faults), 100*float64(r.Detected)/float64(len(faults)),
			r.Vectors, r.Interludes, report.FormatDuration(r.Elapsed))
		return writeSet(stdout, fail, dfs, c, *out, nil, r.TestSet, faults, *compactSet)
	}

	var cfg hybrid.Config
	switch *mode {
	case "gahitec":
		cfg = hybrid.GAHITECConfig(seqLen, *scale)
	case "hitec":
		cfg = hybrid.HITECConfig(3, *scale)
	default:
		return fail("unknown mode %q", *mode)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.PreprocessUntestable = *preprocess
	cfg.Hooks = hooks
	cfg.Audit = auditFlag.enabled
	cfg.Retry = runctl.Escalation{MaxAttempts: *retries}
	cfg.Obs = rec
	// Correlation: an explicit -run-id always wins; otherwise a fresh run
	// with telemetry armed mints one (a -resume adopts the journal's inside
	// hybrid.Resume, so leave the config empty there). The ID only ever
	// appears in telemetry — the notice goes to stderr so stdout stays
	// byte-identical with or without one.
	cfg.RunID = *runIDFlag
	if cfg.RunID == "" && rec != nil && *resume == "" {
		cfg.RunID = obs.NewRunID()
	}
	if cfg.RunID != "" {
		fmt.Fprintf(stderr, "atpg: run id %s\n", cfg.RunID)
	}
	cfg.InjectSpec = injectSpec
	cfg.Watchdog = supervise.Watchdog{Ceiling: *wdCeiling, Stall: *wdStall}
	if *memSoftMB > 0 || *memHardMB > 0 {
		cfg.Governor = &supervise.Governor{
			SoftBytes: uint64(*memSoftMB) << 20,
			HardBytes: uint64(*memHardMB) << 20,
		}
	}
	if *bundleDir != "" {
		if err := os.MkdirAll(*bundleDir, 0o755); err != nil {
			return fail("%v", err)
		}
		// Bundles publish exclusively (fault site and attempt are part of the
		// name, the ordinal is claimed via an exclusive link), so two runs
		// sharing a -bundle-dir never clobber each other's captures.
		// Publication retries transient disk failures (injectable at
		// bundle.publish) and then degrades: a bundle that cannot be written
		// costs the post-mortem artifact, never the run.
		next := 1
		cfg.Bundle = func(b *supervise.Bundle) {
			var p string
			err := runctl.Retry(runctl.WriteAttempts, runctl.WriteBackoff, func() error {
				if hooks.Enter("bundle.publish") == runctl.ActFail {
					return runctl.InjectedFailure{Site: "bundle.publish"}
				}
				var ord int
				var err error
				p, ord, err = supervise.SaveBundleIn(*bundleDir, b, next)
				if err == nil {
					next = ord + 1
				}
				return err
			})
			if err != nil {
				fmt.Fprintf(stderr, "atpg: bundle: %v (continuing without the bundle)\n", err)
				return
			}
			fmt.Fprintf(stderr, "atpg: crash-repro bundle written to %s\n", p)
		}
	}
	if *progressOn {
		var last time.Time
		cfg.Progress = func(p hybrid.Progress) {
			// Rate-limit to ~2 lines/s, but always print a pass's last fault.
			if time.Since(last) < 500*time.Millisecond && p.FaultIndex < p.PassTargets {
				return
			}
			last = time.Now()
			// No progress yet means no rate to extrapolate: show a sentinel
			// instead of a bogus (zero or absurd) estimate.
			eta := "--:--"
			if p.ETA > 0 {
				eta = report.FormatDuration(p.ETA)
			}
			// The retry tail reports as the pass after the schedule.
			pass := fmt.Sprintf("pass %d/%d", p.Pass, p.PassCount)
			if p.Pass > p.PassCount {
				pass = "retry"
			}
			fmt.Fprintf(stderr, "atpg: %s fault %d/%d detected %d/%d (%.1f%%) vectors %d elapsed %s eta %s\n",
				pass, p.FaultIndex, p.PassTargets, p.Detected, p.TotalFaults,
				100*p.Coverage(), p.Vectors,
				report.FormatDuration(p.Elapsed), eta)
		}
	}
	if *interactive {
		reader := bufio.NewReader(os.Stdin)
		cfg.Continue = func(p hybrid.PassStats) bool {
			fmt.Fprintf(stdout, "pass %d: %d detected, %d vectors, %d untestable, %s — continue? [Y/n] ",
				p.Pass, p.Detected, p.Vectors, p.Untestable, report.FormatDuration(p.Elapsed))
			if f, ok := stdout.(*bufio.Writer); ok {
				f.Flush()
			}
			line, err := reader.ReadString('\n')
			if err != nil {
				return false
			}
			line = strings.TrimSpace(strings.ToLower(line))
			return line == "" || line == "y" || line == "yes"
		}
	}

	// -resume implies journaling back to the same file unless -checkpoint
	// redirects it.
	ckptPath := *checkpoint
	if ckptPath == "" && *resume != "" {
		ckptPath = *resume
	}
	if ckptPath != "" {
		cfg.CheckpointEvery = *ckptEvery
		// Journal writes retry transient disk failures (injectable at
		// checkpoint.write); if the disk stays broken the run degrades to
		// running without checkpoints — and says so once — rather than
		// spamming a warning per fault or aborting a healthy run.
		ckptDown := false
		cfg.Checkpoint = func(ck *hybrid.Checkpoint) {
			if ckptDown {
				return
			}
			if err := durable.SaveJSONRetry(dfs, hooks, "checkpoint.write", ckptPath, durable.KindCheckpoint, ck); err != nil {
				ckptDown = true
				fmt.Fprintf(stderr, "atpg: checkpoint: %v; continuing without checkpointing\n", err)
			}
		}
	}

	var res *hybrid.Result
	resumed := false
	if *resume != "" {
		var ck hybrid.Checkpoint
		err := durable.LoadJSON(durable.Disk, *resume, durable.KindCheckpoint, &ck)
		switch {
		case durable.IsCorrupt(err):
			// A journal that fails its integrity check must never be resumed
			// into garbage — and never silently discarded either. Preserve the
			// evidence in corrupt/ next to the journal, say so, and start the
			// run clean; the fresh run re-journals to the same path.
			moved, _, qerr := durable.Quarantine(filepath.Dir(*resume), *resume, err)
			if qerr != nil {
				return fail("corrupt checkpoint %s: %v (quarantine also failed: %v)", *resume, err, qerr)
			}
			fmt.Fprintf(stderr, "atpg: corrupt checkpoint quarantined to %s (%v); starting clean\n", moved, err)
		case err != nil:
			return fail("%v", err)
		default:
			res, err = hybrid.Resume(ctx, c, faults, cfg, &ck)
			if err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stdout, "resumed from %s: pass %d, fault %d, %d sequences restored\n",
				*resume, ck.PassIndex+1, ck.FaultIndex, len(ck.TestSet))
			resumed = true
		}
	}
	if !resumed {
		res = hybrid.RunCtx(ctx, c, faults, cfg)
	}

	if len(res.Passes) > 0 {
		fmt.Fprintf(stdout, "\n%-5s %6s %6s %9s %6s\n", "Pass", "Det", "Vec", "Time", "Unt")
		for _, p := range res.Passes {
			fmt.Fprintf(stdout, "%-5d %6d %6d %9s %6d\n", p.Pass, p.Detected, p.Vectors,
				report.FormatDuration(p.Elapsed), p.Untestable)
		}
	}
	if res.FirstPanic != "" {
		fmt.Fprintf(stderr, "atpg: %d fault(s) aborted by recovered panic; first:\n%s\n",
			res.Phases.Panics, res.FirstPanic)
	}
	if res.Interrupted {
		if ckptPath != "" {
			fmt.Fprintf(stdout, "\ninterrupted; checkpoint journal at %s (resume with -resume %s)\n",
				ckptPath, ckptPath)
		} else {
			fmt.Fprintln(stdout, "\ninterrupted (no -checkpoint journal; progress lost)")
		}
		return exitInterrupted
	}

	last := res.Passes[len(res.Passes)-1]
	fmt.Fprintf(stdout, "\nfault coverage: %.2f%% (%d/%d), %d untestable, %d undecided\n",
		100*res.FaultCoverage(), last.Detected, res.TotalFaults, last.Untestable, last.Aborted)
	if auditFlag.enabled && res.Audit != nil {
		fmt.Fprint(stdout, report.Audit(c, res.Audit))
		verified := res.Audit.VerifiedDetections()
		fmt.Fprintf(stdout, "audited fault coverage: %.2f%% (%d/%d)\n",
			100*float64(verified)/float64(res.TotalFaults), verified, res.TotalFaults)
	}
	if auditFlag.enabled || *retries > 0 {
		fmt.Fprint(stdout, report.Retry(res))
	}
	if *phases {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Phases(res))
	}

	code = writeSet(stdout, fail, dfs, c, *out, res.Targets, res.TestSet, faults, *compactSet)
	if code == 0 && auditFlag.strict && res.Audit != nil && !res.Audit.Clean() {
		fmt.Fprintf(stderr, "atpg: strict audit failed: %d claim(s) not confirmed at their claimed vector\n",
			res.Audit.ConfirmedOther+res.Audit.Unverified)
		return exitAuditFailed
	}
	return code
}

// writeSet optionally compacts and writes a test set in the pattern format,
// sealed in the durable envelope (a '#'-prefixed header the pattern parser
// reads as a comment) and published atomically — temp file, fsync, rename,
// directory fsync — so an interrupted or failed dump never leaves a
// truncated vector file for downstream faultsim to silently mis-grade, and
// a later bit flip is detected by fsck instead of mis-graded. Returns the
// process exit status.
func writeSet(stdout io.Writer, fail func(string, ...any) int, dfs durable.FS, c *netlist.Circuit, path string, targets []fault.Fault, testSet [][]logic.Vector, faults []fault.Fault, compactSet bool) int {
	if compactSet {
		compacted, st := compact.Run(c, faults, testSet)
		testSet = compacted
		targets = nil // compaction reorders coverage; drop the annotations
		fmt.Fprintf(stdout, "compaction: %d -> %d sequences, %d -> %d vectors (coverage preserved: %d detected)\n",
			st.SequencesBefore, st.SequencesAfter, st.VectorsBefore, st.VectorsAfter, st.Detected)
	}
	if path == "" {
		return 0
	}
	set := &pattern.Set{Circuit: c.Name}
	for _, pi := range c.PIs {
		set.Inputs = append(set.Inputs, c.Nodes[pi].Name)
	}
	for i, seq := range testSet {
		q := pattern.Sequence{Vectors: seq}
		if targets != nil && i < len(targets) {
			q.Target = targets[i].String(c)
		}
		set.Sequences = append(set.Sequences, q)
	}

	var buf strings.Builder
	if err := set.Write(&buf); err != nil {
		return fail("writing %s: %v", path, err)
	}
	if err := durable.WriteSealed(dfs, path, durable.KindTests, []byte(buf.String())); err != nil {
		return fail("writing %s: %v", path, err)
	}
	fmt.Fprintf(stdout, "wrote %d vectors (%d sequences) to %s\n", set.NumVectors(), len(set.Sequences), path)
	return 0
}

// runFsck is the fsck subcommand: scan a data directory, verify every
// recognized artifact's envelope and payload, repair what can be repaired
// without losing data, and quarantine the rest to corrupt/ with a report.
// Exit 0 means every artifact is now verifiably intact; exit 5 means damage
// was found that only quarantine could contain.
func runFsck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atpg fsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dryRun := fs.Bool("n", false, "scan only: report what a repair pass would do without changing the disk")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: atpg fsck [-n] <data-dir>")
		return 2
	}
	rep, err := durable.Fsck(fs.Arg(0), !*dryRun)
	if err != nil {
		fmt.Fprintf(stderr, "atpg: fsck: %v\n", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "atpg: fsck: %s\n", p)
	}
	fmt.Fprintln(stdout, rep)
	if !rep.Clean() {
		return exitFsckUnrepairable
	}
	return 0
}

// servePprof serves the standard pprof and expvar endpoints plus /debug/obs
// (the recorder's live metrics snapshot; null when telemetry is off) on addr.
// It returns once the listener is bound — so a bad address fails the run
// immediately — and serving continues in the background for the rest of the
// run. The server shuts down gracefully (draining in-flight requests, then
// releasing the port) when the run context is cancelled — SIGINT/SIGTERM or
// -timeout — or when the returned function is called, whichever comes first;
// calling both is safe. A private mux keeps repeated in-process runs (tests)
// from colliding on DefaultServeMux registrations.
func servePprof(ctx context.Context, addr string, rec *obs.Recorder, stderr io.Writer) (shutdown func(), err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := promexport.Write(w, rec.MetricsSnapshot(), nil); err != nil {
			fmt.Fprintf(stderr, "atpg: pprof: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec.MetricsSnapshot()); err != nil {
			fmt.Fprintf(stderr, "atpg: pprof: %v\n", err)
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "atpg: pprof serving on http://%s/debug/pprof/\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(stderr, "atpg: pprof: %v\n", err)
		}
	}()
	stop := func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close() // drain timed out; release the port regardless
		}
	}
	go func() {
		<-ctx.Done()
		stop()
	}()
	return stop, nil
}

func loadCircuit(name, file string) (*netlist.Circuit, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("use only one of -circuit and -bench")
	case name != "":
		return circuits.Get(name)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.Parse(f, file)
	default:
		return nil, fmt.Errorf("one of -circuit or -bench is required")
	}
}
