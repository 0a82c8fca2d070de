package supervise

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gahitec/internal/runctl"
)

func TestWatchdogDisabledRunsInline(t *testing.T) {
	var w Watchdog
	if w.Enabled() {
		t.Fatal("zero watchdog reports enabled")
	}
	ran := false
	v := w.Do(context.Background(), func(ctx context.Context, pulse *runctl.Pulse) {
		ran = true
		pulse.Beat()
		pulse.Beat()
	})
	if !ran {
		t.Fatal("body did not run")
	}
	if v.Outcome != Completed || v.Abandoned {
		t.Fatalf("verdict = %+v, want completed", v)
	}
	if v.Beats != 2 {
		t.Fatalf("Beats = %d, want 2", v.Beats)
	}
}

func TestWatchdogCompletedUnderSupervision(t *testing.T) {
	w := Watchdog{Ceiling: time.Second}
	v := w.Do(context.Background(), func(ctx context.Context, pulse *runctl.Pulse) {
		pulse.Beat()
	})
	if v.Outcome != Completed || v.Abandoned {
		t.Fatalf("verdict = %+v, want completed", v)
	}
	if v.Beats != 1 {
		t.Fatalf("Beats = %d, want 1", v.Beats)
	}
}

func TestWatchdogCeilingPreemptsContextChecker(t *testing.T) {
	// A cooperative body: never beats, but honours its context. The ceiling
	// fires, the context is cancelled, and the body unwinds within grace.
	w := Watchdog{Ceiling: 30 * time.Millisecond, Grace: time.Second}
	v := w.Do(context.Background(), func(ctx context.Context, pulse *runctl.Pulse) {
		<-ctx.Done()
	})
	if v.Outcome != PreemptedCeiling {
		t.Fatalf("outcome = %v, want preempt_ceiling", v.Outcome)
	}
	if v.Abandoned {
		t.Fatal("cooperative body reported abandoned")
	}
	if v.Elapsed < 30*time.Millisecond {
		t.Fatalf("Elapsed = %v, under the ceiling", v.Elapsed)
	}
}

func TestWatchdogStallPreemptsSilentBody(t *testing.T) {
	// The body beats briskly, then goes silent while still consuming time.
	// Ceiling is far away; the stall detector must fire.
	release := make(chan struct{})
	defer close(release)
	w := Watchdog{Ceiling: time.Minute, Stall: 30 * time.Millisecond, Grace: 5 * time.Millisecond}
	v := w.Do(context.Background(), func(ctx context.Context, pulse *runctl.Pulse) {
		for i := 0; i < 100; i++ {
			pulse.Beat()
		}
		<-release // heartbeat-silent, and ignores ctx: must be abandoned
	})
	if v.Outcome != PreemptedStall {
		t.Fatalf("outcome = %v, want preempt_stall", v.Outcome)
	}
	if !v.Abandoned {
		t.Fatal("uncooperative body not reported abandoned")
	}
	if v.Beats != 100 {
		t.Fatalf("Beats = %d, want 100", v.Beats)
	}
}

func TestWatchdogSteadyHeartbeatIsNotAStall(t *testing.T) {
	// A body that keeps beating must run to completion even when it takes
	// several stall windows of wall clock.
	w := Watchdog{Stall: 40 * time.Millisecond}
	v := w.Do(context.Background(), func(ctx context.Context, pulse *runctl.Pulse) {
		for i := 0; i < 20; i++ {
			pulse.Beat()
			time.Sleep(10 * time.Millisecond)
		}
	})
	if v.Outcome != Completed {
		t.Fatalf("outcome = %v, want completed (elapsed %v, beats %d)", v.Outcome, v.Elapsed, v.Beats)
	}
}

func TestWatchdogRecoversPanics(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		var w Watchdog
		if enabled {
			w.Ceiling = time.Second
		}
		v := w.Do(context.Background(), func(ctx context.Context, pulse *runctl.Pulse) {
			panic(runctl.InjectedPanic{Site: "generate"})
		})
		if v.Outcome != Panicked {
			t.Fatalf("enabled=%v: outcome = %v, want panic", enabled, v.Outcome)
		}
		if v.PanicSite != "generate" {
			t.Fatalf("enabled=%v: PanicSite = %q, want generate", enabled, v.PanicSite)
		}
		if !strings.Contains(v.PanicValue, "injected panic") || v.PanicStack == "" {
			t.Fatalf("enabled=%v: panic details missing: %+v", enabled, v)
		}
	}
}

func TestWatchdogAbandonedBodyEventuallyObeysContext(t *testing.T) {
	// After abandonment the body's context stays cancelled, so a body that
	// eventually polls it can still unwind; its late result must not block.
	var unwound atomic.Bool
	w := Watchdog{Ceiling: 20 * time.Millisecond, Grace: time.Millisecond}
	v := w.Do(context.Background(), func(ctx context.Context, pulse *runctl.Pulse) {
		for ctx.Err() == nil {
			time.Sleep(200 * time.Millisecond) // polls far too slowly
		}
		unwound.Store(true)
	})
	if !v.Abandoned {
		t.Fatalf("verdict = %+v, want abandoned", v)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !unwound.Load() {
		if time.Now().After(deadline) {
			t.Fatal("abandoned body never unwound from the cancelled context")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The scheduler a one-worker run builds from its governor settings is the
// plain level schedule: every sample sets the level the sampled pressure
// calls for (relief on the first calm sample), and its decisions carry no
// worker fields.
func TestGovernorLevels(t *testing.T) {
	heap := uint64(0)
	var recorded, observed []Decision
	g := &Governor{
		SoftBytes:  100,
		HardBytes:  200,
		Probe:      func() uint64 { return heap },
		OnDecision: func(d Decision) { observed = append(observed, d) },
	}
	s := g.Scheduler(1, func(d Decision) { recorded = append(recorded, d) })
	steps := []struct {
		heap uint64
		want Level
	}{
		{50, LevelNormal},
		{100, LevelSoft},
		{150, LevelSoft},
		{250, LevelHard},
		{150, LevelSoft}, // pressure relief recovers
		{10, LevelNormal},
	}
	for i, st := range steps {
		heap = st.heap
		if got, w := s.Sample(1); got != st.want || w != 1 {
			t.Fatalf("step %d (heap %d): (%v, %d workers), want (%v, 1)", i, st.heap, got, w, st.want)
		}
	}
	if s.Samples() != len(steps) {
		t.Fatalf("Samples = %d, want %d", s.Samples(), len(steps))
	}
	wantLog := []string{
		"sample 2 pass 1: normal -> soft (heap 100 bytes)",
		"sample 4 pass 1: soft -> hard (heap 250 bytes)",
		"sample 5 pass 1: hard -> soft (heap 150 bytes)",
		"sample 6 pass 1: soft -> normal (heap 10 bytes)",
	}
	if len(recorded) != len(wantLog) {
		t.Fatalf("decision log has %d entries, want %d: %v", len(recorded), len(wantLog), recorded)
	}
	for i, d := range recorded {
		if d.String() != wantLog[i] {
			t.Fatalf("decision %d = %q, want %q", i, d.String(), wantLog[i])
		}
		if d.FromWorkers != 0 || d.ToWorkers != 0 {
			t.Fatalf("one-worker decision %d carries worker fields: %+v", i, d)
		}
	}
	if !reflect.DeepEqual(observed, recorded) {
		t.Fatalf("OnDecision saw %v, the run recorded %v", observed, recorded)
	}
}

// A nil or thresholdless governor builds an inert scheduler: it never
// probes, never decides, and holds the run's worker count.
func TestGovernorNilAndDisabled(t *testing.T) {
	var nilG *Governor
	s := nilG.Scheduler(4, func(d Decision) { t.Fatalf("nil governor decided: %v", d) })
	if s.Enabled() || s.Level() != LevelNormal || s.Workers() != 4 {
		t.Fatal("nil governor's scheduler is not inert")
	}
	if lvl, w := s.Sample(1); lvl != LevelNormal || w != 4 || s.Samples() != 0 {
		t.Fatalf("nil governor's scheduler sampled to (%v, %d)", lvl, w)
	}
	g := &Governor{Probe: func() uint64 { t.Fatal("disabled governor probed"); return 0 }}
	s = g.Scheduler(1, nil)
	if s.Enabled() {
		t.Fatal("thresholdless governor's scheduler reports enabled")
	}
	if lvl, w := s.Sample(1); lvl != LevelNormal || w != 1 || s.Samples() != 0 {
		t.Fatal("disabled governor's scheduler did not no-op")
	}
}

func TestGovernorDefaultProbeReadsHeap(t *testing.T) {
	s := (&Governor{SoftBytes: 1}).Scheduler(1, nil) // any live heap exceeds one byte
	if got, _ := s.Sample(1); got != LevelSoft {
		t.Fatalf("level = %v, want soft (real heap should exceed 1 byte)", got)
	}
}

func validBundle() *Bundle {
	return &Bundle{
		Version:     BundleVersion,
		Kind:        KindPanic,
		Circuit:     "s27",
		Fingerprint: "abc123",
		Fault:       BundleFault{Node: 5, Pin: -1, Stuck: "0"},
		Seed:        1,
		SubSeed:     42,
		StartGood:   "XXX",
		Pass:        1,
		Params:      BundlePass{Method: "GA", Population: 8, Generations: 2, SeqLen: 4, MaxBacktracks: 100, JustifyAttempts: 1},
		Outcome:     "panic",
	}
}

func TestBundleValidate(t *testing.T) {
	if err := validBundle().Validate(); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Bundle)
	}{
		{"bad version", func(b *Bundle) { b.Version = BundleVersion + 1 }},
		{"no circuit", func(b *Bundle) { b.Circuit = "" }},
		{"no fingerprint", func(b *Bundle) { b.Fingerprint = "" }},
		{"bad node", func(b *Bundle) { b.Fault.Node = -1 }},
		{"no outcome", func(b *Bundle) { b.Outcome = "" }},
		{"bad kind", func(b *Bundle) { b.Kind = "mystery" }},
		{"bad pass", func(b *Bundle) { b.Pass = 0 }},
		{"bad method", func(b *Bundle) { b.Params.Method = "quantum" }},
		{"miscompare without test set", func(b *Bundle) { b.Kind = KindAuditMiscompare }},
		{"miscompare bad claim", func(b *Bundle) {
			b.Kind = KindAuditMiscompare
			b.TestSet = [][]string{{"0000"}}
			b.ClaimVector = -1
		}},
	}
	for _, tc := range cases {
		b := validBundle()
		tc.mut(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: invalid bundle accepted", tc.name)
		}
	}
}

func TestBundleSaveLoadRoundTrip(t *testing.T) {
	b := validBundle()
	b.Kind = KindAuditMiscompare
	b.Outcome = "miscompare"
	b.TestSet = [][]string{{"0101", "1100"}, {"0011"}}
	b.ClaimVector = 2
	path := filepath.Join(t.TempDir(), b.FileName(1))
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != b.Kind || got.SubSeed != b.SubSeed || got.ClaimVector != b.ClaimVector ||
		len(got.TestSet) != 2 || got.TestSet[0][1] != "1100" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestBundleLoadRejectsInvalid(t *testing.T) {
	b := validBundle()
	b.Kind = "mystery"
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(path); err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("invalid bundle loaded: err = %v", err)
	}
}

func TestBundleFileName(t *testing.T) {
	b := validBundle()
	if got, want := b.FileName(7), "bundle-007-panic-n5-stem-sa0-p1-a0.json"; got != want {
		t.Fatalf("FileName = %q, want %q", got, want)
	}
	b.Fault.Pin = 2
	b.Attempt = 3
	if got := b.FileName(12); !strings.Contains(got, "-in2-") || !strings.Contains(got, "-a3.json") {
		t.Fatalf("pin fault FileName = %q, want in2 and a3 markers", got)
	}
}

// The scheduler sheds concurrency before effort and restores effort before
// concurrency, one decision per sample, all logged.
func TestSchedulerThrottlesWorkersBeforeEffort(t *testing.T) {
	heap := uint64(0)
	var log []Decision
	s := &Scheduler{
		SoftBytes:  100,
		HardBytes:  200,
		MaxWorkers: 8,
		Probe:      func() uint64 { return heap },
		OnDecision: func(d Decision) { log = append(log, d) },
	}
	steps := []struct {
		heap        uint64
		wantLevel   Level
		wantWorkers int
	}{
		{50, LevelNormal, 8},  // no pressure, full pool
		{150, LevelNormal, 4}, // soft: halve workers, keep effort
		{150, LevelNormal, 2},
		{150, LevelNormal, 1},
		{150, LevelSoft, 1},  // only at one worker does effort shed
		{250, LevelHard, 1},  // hard at one worker escalates the level
		{50, LevelNormal, 1}, // relief restores effort first...
		{50, LevelNormal, 2}, // ...then doubles concurrency back
		{50, LevelNormal, 4},
		{50, LevelNormal, 8},
		{50, LevelNormal, 8},
	}
	for i, st := range steps {
		heap = st.heap
		lvl, w := s.Sample(2)
		if lvl != st.wantLevel || w != st.wantWorkers {
			t.Fatalf("step %d (heap %d): (%v, %d) workers, want (%v, %d)",
				i, st.heap, lvl, w, st.wantLevel, st.wantWorkers)
		}
	}
	if len(log) != 9 {
		t.Fatalf("decision log has %d entries, want 9: %v", len(log), log)
	}
	if got, want := log[0].String(), "sample 2 pass 2: normal -> normal (heap 150 bytes), workers 8 -> 4"; got != want {
		t.Fatalf("first decision = %q, want %q", got, want)
	}
	for _, d := range log {
		if (d.To == "soft" || d.To == "hard") && d.ToWorkers != 1 {
			t.Fatalf("effort shed with %d workers: %s", d.ToWorkers, d)
		}
	}
}

// Hard pressure is an OOM risk: the scheduler drops straight to one worker
// rather than stepping down.
func TestSchedulerHardPressureDropsToOneWorker(t *testing.T) {
	heap := uint64(500)
	s := &Scheduler{SoftBytes: 100, HardBytes: 200, MaxWorkers: 8, Probe: func() uint64 { return heap }}
	if lvl, w := s.Sample(1); lvl != LevelNormal || w != 1 {
		t.Fatalf("first hard sample: (%v, %d), want (normal, 1)", lvl, w)
	}
	if lvl, w := s.Sample(1); lvl != LevelHard || w != 1 {
		t.Fatalf("second hard sample: (%v, %d), want (hard, 1)", lvl, w)
	}
}

// With one worker the scheduler reduces to the Governor's level schedule: a
// hand-built one-worker Scheduler and the one a Governor builds for a
// one-worker run both set, at every sample, the level the sampled pressure
// calls for, never leave one worker, and log the same level changes.
func TestSchedulerSerialReducesToGovernor(t *testing.T) {
	heap := uint64(0)
	probe := func() uint64 { return heap }
	var sLog, gLog []Decision
	s := &Scheduler{SoftBytes: 100, HardBytes: 200, MaxWorkers: 1, Probe: probe,
		OnDecision: func(d Decision) { sLog = append(sLog, d) }}
	g := (&Governor{SoftBytes: 100, HardBytes: 200, Probe: probe}).
		Scheduler(1, func(d Decision) { gLog = append(gLog, d) })
	for i, h := range []uint64{50, 100, 150, 250, 150, 10, 250, 50} {
		heap = h
		want := LevelNormal
		switch {
		case h >= 200:
			want = LevelHard
		case h >= 100:
			want = LevelSoft
		}
		lvl, w := s.Sample(1)
		glvl, gw := g.Sample(1)
		if w != 1 || gw != 1 {
			t.Fatalf("step %d: workers (%d, %d) under MaxWorkers=1", i, w, gw)
		}
		if lvl != want || glvl != want {
			t.Fatalf("step %d (heap %d): levels (%v, %v), want %v", i, h, lvl, glvl, want)
		}
	}
	if len(sLog) != len(gLog) {
		t.Fatalf("scheduler logged %v, governor's scheduler %v", sLog, gLog)
	}
	for i, d := range sLog {
		d.FromWorkers, d.ToWorkers = 0, 0 // a one-worker run's log omits them
		if d != gLog[i] {
			t.Fatalf("decision %d: scheduler %+v, governor's scheduler %+v", i, d, gLog[i])
		}
	}
}

// Nil and disabled schedulers are inert.
func TestSchedulerNilAndDisabled(t *testing.T) {
	var nilS *Scheduler
	if nilS.Enabled() || nilS.Level() != LevelNormal || nilS.Workers() != 1 || nilS.Samples() != 0 {
		t.Fatal("nil scheduler is not inert")
	}
	if lvl, w := nilS.Sample(1); lvl != LevelNormal || w != 1 {
		t.Fatal("nil scheduler sampled to a non-normal state")
	}
	s := &Scheduler{MaxWorkers: 4, Probe: func() uint64 { t.Fatal("disabled scheduler probed"); return 0 }}
	if s.Enabled() {
		t.Fatal("thresholdless scheduler reports enabled")
	}
	if lvl, w := s.Sample(1); lvl != LevelNormal || w != 4 || s.Samples() != 0 {
		t.Fatalf("disabled scheduler did not no-op: (%v, %d)", lvl, w)
	}
}

// Two writers racing the same ordinal must never clobber each other: the
// exclusive link-based publish gives each its own file.
func TestSaveBundleInConcurrentWritersNeverClobber(t *testing.T) {
	dir := t.TempDir()
	const writers = 8
	paths := make([]string, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := validBundle()
			b.SubSeed = int64(1000 + i) // distinguishable payloads
			b.Attempt = i
			<-start
			paths[i], _, errs[i] = SaveBundleIn(dir, b, 1) // everyone wants ordinal 1
		}(i)
	}
	close(start)
	wg.Wait()
	seen := make(map[string]bool)
	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if seen[paths[i]] {
			t.Fatalf("two writers published the same path %s", paths[i])
		}
		seen[paths[i]] = true
		got, err := LoadBundle(paths[i])
		if err != nil {
			t.Fatalf("writer %d bundle unreadable: %v", i, err)
		}
		if got.SubSeed != int64(1000+i) {
			t.Fatalf("writer %d: payload clobbered: sub_seed %d in %s", i, got.SubSeed, paths[i])
		}
	}
	// No leftover temp files.
	tmps, _ := filepath.Glob(filepath.Join(dir, ".bundle.tmp*"))
	if len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

// SaveBundleIn skips ordinals already on disk instead of replacing them.
func TestSaveBundleInSkipsTakenOrdinals(t *testing.T) {
	dir := t.TempDir()
	b := validBundle()
	if _, ord, err := SaveBundleIn(dir, b, 1); err != nil || ord != 1 {
		t.Fatalf("first save: ordinal %d, err %v", ord, err)
	}
	b2 := validBundle() // identical site: same candidate name at ordinal 1
	path, ord, err := SaveBundleIn(dir, b2, 1)
	if err != nil || ord != 2 {
		t.Fatalf("second save: ordinal %d, err %v", ord, err)
	}
	if !strings.Contains(path, "bundle-002-") {
		t.Fatalf("second save path %q does not carry ordinal 2", path)
	}
}

// Rapid soft/normal pressure oscillation — the heap hovering around the
// threshold — must not thrash the pool: with the dwell armed, every pressure
// sample resets the calm counter, so during the flap the worker count only
// ever ratchets down, and scale-ups resume only after DwellSamples
// consecutive calm samples. The decision log is a pure function of the
// pressure schedule, so two identical runs log identically.
func TestSchedulerOscillationDoesNotThrash(t *testing.T) {
	run := func() ([]Decision, []int) {
		heap := uint64(0)
		var log []Decision
		s := &Scheduler{
			SoftBytes:    100,
			HardBytes:    400,
			MaxWorkers:   8,
			DwellSamples: 2,
			Probe:        func() uint64 { return heap },
			OnDecision:   func(d Decision) { log = append(log, d) },
		}
		var workers []int
		sample := func(h uint64) {
			heap = h
			_, w := s.Sample(1)
			workers = append(workers, w)
		}
		for i := 0; i < 8; i++ { // soft/normal flap, 16 samples
			sample(150)
			sample(50)
		}
		for i := 0; i < 8; i++ { // sustained calm
			sample(50)
		}
		return log, workers
	}

	log, workers := run()
	// No thrash: during the 16-sample flap the pool only ratchets down.
	for i := 1; i < 16; i++ {
		if workers[i] > workers[i-1] {
			t.Fatalf("flap sample %d scaled up %d -> %d workers mid-oscillation", i+1, workers[i-1], workers[i])
		}
	}
	want := []struct {
		sample, fromW, toW int
		from, to           Level
	}{
		{1, 8, 4, LevelNormal, LevelNormal},  // shed on first soft sample
		{3, 4, 2, LevelNormal, LevelNormal},  // calm sample 2 held (dwell)
		{5, 2, 1, LevelNormal, LevelNormal},  // monotone to one worker
		{7, 1, 1, LevelNormal, LevelSoft},    // then effort sheds
		{17, 1, 1, LevelSoft, LevelNormal},   // 2nd calm sample: effort first
		{18, 1, 2, LevelNormal, LevelNormal}, // then concurrency
		{19, 2, 4, LevelNormal, LevelNormal},
		{20, 4, 8, LevelNormal, LevelNormal},
	}
	if len(log) != len(want) {
		t.Fatalf("%d decisions, want %d: %+v", len(log), len(want), log)
	}
	for i, w := range want {
		d := log[i]
		if d.Sample != w.sample || d.FromWorkers != w.fromW || d.ToWorkers != w.toW ||
			d.From != w.from.String() || d.To != w.to.String() {
			t.Fatalf("decision %d = %+v, want sample %d workers %d->%d level %v->%v",
				i, d, w.sample, w.fromW, w.toW, w.from, w.to)
		}
	}

	log2, _ := run()
	if !reflect.DeepEqual(log, log2) {
		t.Fatalf("decision log not deterministic:\n%+v\n%+v", log, log2)
	}
}

// Hard/normal oscillation: the drop to one worker is immediate and the
// dwell keeps the pool shed for the whole flap.
func TestSchedulerHardOscillationStaysShed(t *testing.T) {
	heap := uint64(0)
	s := &Scheduler{
		SoftBytes:    100,
		HardBytes:    400,
		MaxWorkers:   8,
		DwellSamples: 3,
		Probe:        func() uint64 { return heap },
	}
	heap = 500
	if _, w := s.Sample(1); w != 1 {
		t.Fatalf("first hard sample left %d workers, want 1", w)
	}
	for i := 0; i < 6; i++ { // hard/normal flap: never recovers
		heap = 50
		s.Sample(1)
		heap = 500
		if lvl, w := s.Sample(1); w != 1 || lvl > LevelHard {
			t.Fatalf("flap %d: (%v, %d), want workers pinned at 1", i, lvl, w)
		}
	}
	heap = 50
	for i := 0; i < 3; i++ { // dwell not yet satisfied
		if _, w := s.Sample(1); w != 1 {
			t.Fatalf("calm sample %d scaled up to %d workers before the dwell elapsed", i+1, w)
		}
	}
	if _, w := s.Sample(1); w != 2 {
		t.Fatalf("first post-dwell sample: %d workers, want 2", w)
	}
}
