package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gahitec/internal/bench"
	"gahitec/internal/circuits"
	"gahitec/internal/durable"
	"gahitec/internal/fault"
	"gahitec/internal/jobq"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/pattern"
)

// workRoot is where service_jobs keeps its queues; the directory is
// removed when the run ends.
const workRoot = ".bench_build/perfbench-work"

// sizeClass is one rung of the cmd/atpgload size ladder.
type sizeClass struct {
	name                     string
	pi, po, ff, depth, gates int
}

var sizeClasses = []sizeClass{
	{"small", 3, 2, 1, 1, 8},
	{"medium", 4, 2, 1, 1, 12},
	{"large", 4, 2, 2, 1, 12},
}

// Each of the two clients submits jobsPerClient jobs per round, one at a
// time, waiting for each to finish before it submits the next (a closed
// loop), in the same order every round. Client a starts the round; client b
// submits its first job once a's first job is running. With one job slot
// the runner then alternates between the clients, and every job of a round
// queues behind the same job of the other client in every round. The seed
// changes nothing here: the order of a closed loop decides which job queues
// behind which, and a seeded order moved the median turnaround by 18%
// between seeds.
const (
	clients       = 2
	jobsPerClient = 6
	jobCircuitSet = 1 // base seed of the synthesized job circuits
)

// pollInterval is how often a client looks at its job's state.
const pollInterval = time.Millisecond

// jobTimeout bounds the wait for one job; a job still unfinished then has
// failed.
const jobTimeout = 60 * time.Second

// serviceJob is one job a client submits every round, with what its
// checks need.
type serviceJob struct {
	spec   jobq.Spec
	c      *netlist.Circuit
	faults []fault.Fault
	first  *jobq.Summary // the first round's result
}

type serviceWorkload struct {
	dir    string
	fs     *countingFS
	q      *jobq.Queue
	jobs   [clients][]*serviceJob // per client, in submission order
	cancel context.CancelFunc
	done   chan struct{}
}

// jobSpecs synthesizes the jobs of the two clients on the size ladder, as
// cmd/atpgload does, from the fixed circuit set.
func jobSpecs() ([clients][]*serviceJob, error) {
	var out [clients][]*serviceJob
	for k := 0; k < clients; k++ {
		tenant := fmt.Sprintf("client-%c", 'a'+k)
		for i := 0; i < jobsPerClient; i++ {
			cls := sizeClasses[i%len(sizeClasses)]
			h := fnv.New64a()
			h.Write([]byte(tenant))
			jseed := jobCircuitSet ^ int64(h.Sum64()&0x7fffffff) + int64(i)*7919
			c, err := circuits.StandIn(circuits.Profile{
				Name: fmt.Sprintf("load_%s_%d", cls.name, i),
				PI:   cls.pi, PO: cls.po, FF: cls.ff, Depth: cls.depth, Gates: cls.gates,
				Seed: jseed,
			})
			if err != nil {
				return out, err
			}
			out[k] = append(out[k], &serviceJob{
				spec: jobq.Spec{
					Bench:           bench.WriteString(c),
					Tenant:          tenant,
					Seed:            jseed,
					Scale:           workScale,
					X:               2,
					CheckpointEvery: 4,
					Workers:         1,
				},
				c: c, faults: fault.Collapse(c),
			})
		}
	}
	return out, nil
}

func setupServiceJobs(int64) (workload, error) {
	jobs, err := jobSpecs()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "queue-")
	if err != nil {
		return nil, err
	}
	w := &serviceWorkload{dir: dir, fs: &countingFS{inner: durable.Disk}, jobs: jobs}
	q, _, err := jobq.OpenFS(w.fs, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.q = q
	return w, nil
}

// start launches the runner: one job slot.
func (w *serviceWorkload) start() {
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel, w.done = cancel, make(chan struct{})
	r := &jobq.Runner{Queue: w.q, Slots: 1}
	go func() {
		defer close(w.done)
		r.Run(ctx)
	}()
}

func (w *serviceWorkload) close() {
	if w.cancel != nil {
		w.cancel()
		<-w.done
	}
	os.RemoveAll(w.dir)
	os.Remove(workRoot) // only when no other run is using it
}

// jobRecord is one submitted job as its client saw it.
type jobRecord struct {
	job          *serviceJob
	id           string
	err          error
	submitMS     float64
	turnaroundMS float64 // submit to done
	busyMS       float64 // submit to done, less host steal
}

type serviceRun struct {
	records []jobRecord
	wallS   float64
	io      ioCounts
}

func (w *serviceWorkload) round(traced bool) (outcome, error) {
	if w.cancel == nil {
		w.start()
	}
	w.fs.reset(traced)
	t0 := time.Now()
	var recs [clients][]jobRecord
	var wg sync.WaitGroup
	running := make([]chan struct{}, clients) // closed when the client's first job runs
	for k := range running {
		running[k] = make(chan struct{})
	}
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if k > 0 {
				<-running[k-1]
			}
			for i, j := range w.jobs[k] {
				var started chan struct{}
				if i == 0 {
					started = running[k]
				}
				recs[k] = append(recs[k], w.submitAndWait(j, started))
			}
		}(k)
	}
	wg.Wait()
	r := &serviceRun{wallS: time.Since(t0).Seconds(), io: w.fs.snapshot()}
	w.fs.reset(false)
	for k := range recs {
		r.records = append(r.records, recs[k]...)
	}
	return outcome{raw: r}, nil
}

// submitAndWait submits one job and polls until it reaches a terminal
// state. It closes started, when not nil, once the job has left the queue
// (or could not be submitted).
func (w *serviceWorkload) submitAndWait(j *serviceJob, started chan struct{}) jobRecord {
	defer func() {
		if started != nil {
			close(started)
		}
	}()
	rec := jobRecord{job: j}
	clk := startClock()
	t0 := clk.wall
	job, err := w.q.Submit(j.spec)
	rec.submitMS = float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id = job.ID
	for {
		info, _ := w.q.Info(job.ID)
		if started != nil && info.Status.State != jobq.Pending {
			close(started)
			started = nil
		}
		if info.Status.State.Terminal() {
			break
		}
		if time.Since(t0) > jobTimeout {
			rec.err = fmt.Errorf("%s unfinished after %v", job.ID, jobTimeout)
			break
		}
		time.Sleep(pollInterval)
	}
	wall, busy := clk.elapsed()
	rec.turnaroundMS, rec.busyMS = wall*1000, busy*1000
	return rec
}

func (w *serviceWorkload) finish(out *outcome) error {
	r := out.raw.(*serviceRun)
	var submit, wait, engine, overhead []float64
	traced := r.io.on
	if traced {
		out.layers = map[string]float64{}
	}
	traceBytes := 0.0
	for _, rec := range r.records {
		out.ops++
		out.jobMS = append(out.jobMS, rec.busyMS)
		res, info, err := w.checkJob(rec)
		if err != nil {
			out.failed++
			reportFailure(rec.id, err)
			continue
		}
		out.detected += res.Detected
		out.vectors += res.Vectors
		out.untestable += res.Untestable
		if !traced {
			continue
		}
		waitMS := float64(info.Status.StartedMS - info.Status.SubmittedMS)
		submit = append(submit, rec.submitMS)
		wait = append(wait, waitMS)
		engine = append(engine, float64(res.ElapsedMS))
		overhead = append(overhead, rec.turnaroundMS-waitMS-float64(res.ElapsedMS))
		// The job's engine layers: its metrics.json snapshot and its trace.
		job, _ := w.q.Get(rec.id)
		var m obs.Metrics
		if err := durable.LoadJSON(durable.Disk, filepath.Join(job.Dir, "metrics.json"), durable.KindMetrics, &m); err != nil {
			return err
		}
		nd, err := os.ReadFile(job.TracePath())
		if err != nil {
			return err
		}
		traceBytes += float64(len(nd))
		if err := addEngineLayers(out.layers, &m, nd); err != nil {
			return err
		}
	}
	if traced {
		out.layers["jobq.submit_ms"] = median(submit)
		out.layers["jobq.wait_ms"] = median(wait)
		out.layers["jobq.engine_ms"] = median(engine)
		out.layers["jobq.overhead_ms"] = median(overhead)
		out.layers["durable.writes"] = float64(r.io.writes)
		out.layers["durable.bytes"] = float64(r.io.bytes)
		out.layers["durable.fsyncs"] = float64(r.io.fsyncs)
		out.layers["durable.fsync_s"] = float64(r.io.fsyncNS) / 1e9
		out.layers["obs.trace_bytes"] = traceBytes
		// One job slot: the share of the round the runner spent in engines.
		out.layers["trace.accounted_pct"] = 100 * sum(engine) / 1000 / r.wallS
	}
	return nil
}

// checkJob checks one job: it ended done on its first attempt, its sealed
// artifacts verify, and the reference grades its tests.txt to the detected
// count in its result.json. Later rounds must reproduce the first round's
// result.
func (w *serviceWorkload) checkJob(rec jobRecord) (*jobq.Summary, jobq.Info, error) {
	if rec.err != nil {
		return nil, jobq.Info{}, rec.err
	}
	info, ok := w.q.Info(rec.id)
	if !ok {
		return nil, info, fmt.Errorf("job vanished")
	}
	if st := info.Status; st.State != jobq.Done || st.Attempts != 0 || st.Interrupts != 0 {
		return nil, info, fmt.Errorf("ended %s after %d failed attempts and %d interrupts, want done on the first attempt", st.State, st.Attempts, st.Interrupts)
	}
	job, _ := w.q.Get(rec.id)
	tests, _, err := durable.ReadSealed(durable.Disk, filepath.Join(job.Dir, "tests.txt"), durable.KindTests)
	if err != nil {
		return nil, info, err
	}
	var sum jobq.Summary
	if err := durable.LoadJSON(durable.Disk, filepath.Join(job.Dir, "result.json"), durable.KindResult, &sum); err != nil {
		return nil, info, err
	}
	var m obs.Metrics
	if err := durable.LoadJSON(durable.Disk, filepath.Join(job.Dir, "metrics.json"), durable.KindMetrics, &m); err != nil {
		return nil, info, err
	}
	set, err := pattern.Read(bytes.NewReader(tests))
	if err != nil {
		return nil, info, err
	}
	ref, err := newRefSim(rec.job.c)
	if err != nil {
		return nil, info, err
	}
	det := ref.detect(rec.job.faults, setVectors(set))
	if len(det) != sum.Detected {
		return nil, info, fmt.Errorf("result.json reports %d detected; the reference grades tests.txt to %d", sum.Detected, len(det))
	}
	if n := set.NumVectors(); n != sum.Vectors {
		return nil, info, fmt.Errorf("result.json reports %d vectors; tests.txt has %d", sum.Vectors, n)
	}
	if f := rec.job.first; f == nil {
		rec.job.first = &sum
	} else if f.Detected != sum.Detected || f.Vectors != sum.Vectors || f.Untestable != sum.Untestable || f.Sequences != sum.Sequences {
		return nil, info, fmt.Errorf("result differs from the first round's")
	}
	return &sum, info, nil
}

func setVectors(set *pattern.Set) [][]logic.Vector {
	var out [][]logic.Vector
	for _, q := range set.Sequences {
		out = append(out, q.Vectors)
	}
	return out
}

// countingFS is a durable.FS that counts what the queue writes and syncs,
// while switched on.
type countingFS struct {
	inner   durable.FS
	on      atomic.Bool
	writes  atomic.Int64
	bytes   atomic.Int64
	fsyncs  atomic.Int64
	fsyncNS atomic.Int64
}

type ioCounts struct {
	on                             bool
	writes, bytes, fsyncs, fsyncNS int64
}

func (f *countingFS) reset(on bool) {
	f.writes.Store(0)
	f.bytes.Store(0)
	f.fsyncs.Store(0)
	f.fsyncNS.Store(0)
	f.on.Store(on)
}

func (f *countingFS) snapshot() ioCounts {
	return ioCounts{on: f.on.Load(), writes: f.writes.Load(), bytes: f.bytes.Load(), fsyncs: f.fsyncs.Load(), fsyncNS: f.fsyncNS.Load()}
}

func (f *countingFS) sync(fn func() error) error {
	if !f.on.Load() {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	f.fsyncNS.Add(int64(time.Since(t0)))
	f.fsyncs.Add(1)
	return err
}

func (f *countingFS) CreateTemp(dir, pattern string) (durable.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}
func (f *countingFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *countingFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}
func (f *countingFS) Link(oldname, newname string) error { return f.inner.Link(oldname, newname) }
func (f *countingFS) SyncDir(dir string) error {
	return f.sync(func() error { return f.inner.SyncDir(dir) })
}
func (f *countingFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

type countingFile struct {
	durable.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.fs.on.Load() {
		f.fs.writes.Add(1)
		f.fs.bytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error { return f.fs.sync(f.File.Sync) }
