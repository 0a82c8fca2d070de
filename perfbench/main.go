// Command perfbench is the project's work-bounded benchmark. It drives one
// workload through the public entry points of internal/hybrid,
// internal/compact and internal/jobq for a fixed number of seconds, checks
// every output against a reference fault simulator of its own (refsim.go),
// and prints a diagnostics line and, last, one JSON result line. Build and
// run it from the root of the repository with
//
//	bash perfbench/run.sh --workload ga_table2 --seed 1 --seconds 10 --trace 0
//
// Every engine run is work-bounded: the Table I population, generation,
// sequence-length and backtrack caps bind, and the per-fault wall-clock
// limits are scaled so far up that they never can. Outputs are then exact
// for a given input, and time measures work. With --trace 0 the result
// holds the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics, taken from the program's obs.Recorder and from timers around the
// benchmark's own calls into each layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one round of a workload produced. ops operations were
// attempted and failed of them did not pass their checks.
type outcome struct {
	ops, failed int

	detected, vectors, untestable int

	// jobMS holds every operation's latency in wall-clock milliseconds
	// less host steal: on service_jobs a job's submit-to-done time,
	// elsewhere one circuit run or compaction.
	jobMS []float64

	layers map[string]float64 // per-layer values of a traced round

	raw any // the round's outputs, for finish
}

// workload is one benchmark workload after set-up.
type workload interface {
	// round runs the timed operations once; traced attaches the program's
	// recorder.
	round(traced bool) (outcome, error)
	// finish checks a round's outputs and, for a traced round, fills
	// outcome.layers. It runs outside the timed phase.
	finish(out *outcome) error
	// close releases what set-up acquired.
	close()
}

// workloads maps names to set-up functions; set-up time is setup_s.
var workloads = map[string]func(seed int64) (workload, error){
	"ga_table2":      setupGATable2,
	"hitec_am2910":   setupHITECAm2910,
	"compact_am2910": setupCompactAm2910,
	"service_jobs":   setupServiceJobs,
}

// setupReps is how many times set-up runs; setup_s is the median of the
// process CPU time each took. A set-up takes about a millisecond, too short
// to take host steal out of its wall time as the rounds do (/proc/stat
// counts steal in 10 ms ticks), and it waits on no I/O, so its CPU time is
// its duration less steal.
const setupReps = 101

func main() {
	var (
		name    = flag.String("workload", "", "workload: ga_table2, hitec_am2910, compact_am2910 or service_jobs")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
		regen   = flag.String("write-compact-input", "", "regenerate the compact_am2910 input at this path and exit")
	)
	flag.Parse()
	if err := pinOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: running on every CPU:", err)
	}
	if *regen != "" {
		if err := writeCompactInput(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {ga_table2|hitec_am2910|compact_am2910|service_jobs}, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupReps times, then runs whole rounds until the
// timed phase has lasted at least d. With traced set, every iteration runs
// one untraced round and one traced round, so the recorder's overhead is
// measured in the same run.
func run(setup func(int64) (workload, error), seed int64, d time.Duration, traced bool) (*result, error) {
	var wl workload
	var setupS, setupWall []float64
	for i := 0; i < setupReps; i++ {
		if wl != nil {
			wl.close()
		}
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		w, err := setup(seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, cpuSeconds()-c0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
		wl = w
	}
	defer wl.close()

	var (
		runS, wallS, cpuS, allocMB, tracedS []float64
		jobMS                               []float64
		layers                              []map[string]float64
		attempted, failed                   int
		first                               *outcome
		timed                               = startClock()
	)
	for len(runS) == 0 || time.Since(timed.wall) < d {
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			runtime.GC()
			c0, a0, g0 := cpuSeconds(), allocBytes(), gcCount()
			clk := startClock()
			out, err := wl.round(tr)
			wall, busy := clk.elapsed()
			cpu, alloc, gcs := cpuSeconds()-c0, allocBytes()-a0, gcCount()-g0
			if err != nil {
				return nil, err
			}
			if err := wl.finish(&out); err != nil {
				return nil, err
			}
			attempted += out.ops
			failed += out.failed
			if first == nil {
				o := out
				first = &o
			} else if out.detected != first.detected || out.vectors != first.vectors || out.untestable != first.untestable {
				// The checks compared this round's outputs with the first
				// round's; counts that moved anyway are a failure too.
				failed += out.ops - out.failed
			}
			if tr {
				tracedS = append(tracedS, busy)
				out.layers["runtime.gc_cycles"] = gcs
				layers = append(layers, out.layers)
				continue
			}
			runS = append(runS, busy)
			wallS = append(wallS, wall)
			cpuS = append(cpuS, cpu)
			allocMB = append(allocMB, alloc/(1<<20))
			jobMS = append(jobMS, out.jobMS...)
		}
	}
	timedWall, timedBusy := timed.elapsed()

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		for _, name := range layerMetrics {
			var vs []float64
			for _, l := range layers {
				vs = append(vs, l[name.name])
			}
			res.Metrics[name.name] = metric{median(vs), name.unit}
		}
		res.Metrics["obs.overhead_s"] = metric{median(tracedS) - median(runS), "s"}
	} else {
		jobs := float64(len(jobMS)) / sum(runS)
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["run_s"] = metric{median(runS), "s"}
		res.Metrics["cpu_s"] = metric{median(cpuS), "s"}
		res.Metrics["alloc_mb"] = metric{median(allocMB), "MB"}
		res.Metrics["detected"] = metric{float64(first.detected), "count"}
		res.Metrics["vectors"] = metric{float64(first.vectors), "count"}
		res.Metrics["untestable"] = metric{float64(first.untestable), "count"}
		res.Metrics["jobs_per_s"] = metric{jobs, "jobs/s"}
		res.Metrics["job_p50_ms"] = metric{median(jobMS), "ms"}
	}
	diag := map[string]any{
		"rounds":     len(runS),
		"timed_s":    timedWall,
		"steal_s":    timedWall - timedBusy,
		"cpu":        statLine,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"attempted":  attempted,
		"failed":     failed,
		"setup_s":    spread(setupS),
		"setup_wall": spread(setupWall),
		"run_s":      runS,
		"wall_s":     wallS,
		"cpu_s":      cpuS,
	}
	if traced {
		diag["traced_run_s"] = tracedS
	}
	b, _ := json.Marshal(diag) // only numbers, strings and slices of numbers
	fmt.Println("diagnostics", string(b))
	return res, nil
}

// layerMetrics lists the per-layer metrics every traced run reports; a layer
// a workload does not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"justify.ga_s", "s"},
	{"justify.ga_calls", "count"},
	{"justify.ga_found", "count"},
	{"justify.ga_evaluations", "count"},
	{"atpg.excite_s", "s"},
	{"atpg.excite_calls", "count"},
	{"atpg.excite_aborted", "count"},
	{"atpg.justify_s", "s"},
	{"atpg.justify_calls", "count"},
	{"atpg.justify_found", "count"},
	{"atpg.backtracks", "count"},
	{"faultsim.grade_s", "s"},
	{"faultsim.grade_calls", "count"},
	{"faultsim.verify_s", "s"},
	{"compact.sequences_s", "s"},
	{"compact.trim_s", "s"},
	{"compact.dropped", "count"},
	{"jobq.submit_ms", "ms"},
	{"jobq.wait_ms", "ms"},
	{"jobq.engine_ms", "ms"},
	{"jobq.overhead_ms", "ms"},
	{"durable.writes", "count"},
	{"durable.bytes", "bytes"},
	{"durable.fsyncs", "count"},
	{"durable.fsync_s", "s"},
	{"obs.trace_bytes", "bytes"},
	{"hybrid.self_s", "s"},
	{"hybrid.targeted", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.accounted_pct", "%"},
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns the least, median and greatest of vs.
func spread(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return [3]float64{s[0], median(s), s[len(s)-1]}
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() (alloc, gcs float64) {
	metrics.Read(runtimeSamples)
	return float64(runtimeSamples[0].Value.Uint64()), float64(runtimeSamples[1].Value.Uint64())
}

func allocBytes() float64 { a, _ := readRuntime(); return a }
func gcCount() float64    { _, g := readRuntime(); return g }
