// Package supervise makes per-fault search execution externally supervised,
// degradable and replayable — the robustness layer between the run-control
// primitives in runctl and the hybrid driver.
//
// It provides three pieces:
//
//   - Watchdog: a side goroutine per supervised call, fed by progress
//     heartbeats (runctl.Pulse, beaten automatically by every budget poll in
//     the PODEM backtrack loop, the GA generation loop and the deterministic
//     justification decision loop). The watchdog hard-preempts a search that
//     exceeds its wall-clock ceiling or goes heartbeat-silent — even if the
//     search body never checks its context — by cancelling the body's
//     context, waiting a short grace period, and abandoning the goroutine if
//     it still has not returned.
//
//   - Governor and Scheduler: the Governor holds a run's memory-pressure
//     settings, and each run builds its own Scheduler from them. The
//     Scheduler is sampled at deterministic points (fault boundaries, never
//     from a timer) and maps the sampled heap size to a worker-count target
//     and a load-shedding level. internal/hybrid translates levels into
//     smaller GA populations, shorter sequences and skipped optional passes;
//     every decision is recorded so a degraded run is explainable.
//
//   - Bundle: a self-contained, deterministic description of one fault
//     attempt (circuit fingerprint, fault, RNG position, start state, pass
//     parameters), serialized when something goes wrong — panic, audit
//     miscompare, watchdog preemption, budget exhaustion — and replayable in
//     isolation with `atpg -repro`.
package supervise

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"gahitec/internal/runctl"
)

// Outcome classifies how a supervised call ended.
type Outcome uint8

const (
	// Completed: the body returned on its own.
	Completed Outcome = iota
	// Panicked: the body panicked; the panic was recovered and recorded.
	Panicked
	// PreemptedCeiling: the body exceeded the watchdog's wall-clock ceiling.
	PreemptedCeiling
	// PreemptedStall: the body went heartbeat-silent for longer than the
	// stall threshold.
	PreemptedStall
)

func (o Outcome) String() string {
	switch o {
	case Panicked:
		return "panic"
	case PreemptedCeiling:
		return "preempt_ceiling"
	case PreemptedStall:
		return "preempt_stall"
	default:
		return "completed"
	}
}

// Preempted reports whether the outcome is a watchdog preemption.
func (o Outcome) Preempted() bool {
	return o == PreemptedCeiling || o == PreemptedStall
}

// Watchdog supervises one call at a time. The zero value is disabled: Do
// runs the body inline (still recovering panics), adding nothing but a
// recover frame.
type Watchdog struct {
	// Ceiling is the hard wall-clock bound per supervised call; 0 disables
	// ceiling preemption. This is a backstop above the search's own
	// per-fault deadline: it fires when the body blows through a deadline it
	// never checks.
	Ceiling time.Duration

	// Stall preempts a body that has gone this long without a heartbeat;
	// 0 disables stall preemption.
	Stall time.Duration

	// Grace is how long the watchdog waits, after cancelling a preempted
	// body's context, for the body to return before abandoning its goroutine
	// (default 100ms). An abandoned body keeps running until its next budget
	// poll notices the cancellation; its results are discarded either way.
	Grace time.Duration

	// Poll is the supervision sampling cadence (default: an eighth of the
	// tightest enabled threshold, clamped to [1ms, 100ms]).
	Poll time.Duration
}

// Enabled reports whether any preemption threshold is armed.
func (w Watchdog) Enabled() bool { return w.Ceiling > 0 || w.Stall > 0 }

func (w Watchdog) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	tightest := w.Ceiling
	if w.Stall > 0 && (tightest == 0 || w.Stall < tightest) {
		tightest = w.Stall
	}
	p := tightest / 8
	if p < time.Millisecond {
		p = time.Millisecond
	}
	if p > 100*time.Millisecond {
		p = 100 * time.Millisecond
	}
	return p
}

func (w Watchdog) grace() time.Duration {
	if w.Grace > 0 {
		return w.Grace
	}
	return 100 * time.Millisecond
}

// Verdict reports how a supervised call ended.
type Verdict struct {
	Outcome Outcome
	Elapsed time.Duration
	Beats   uint64 // heartbeats observed over the call

	// Abandoned is set when the body was still running at the end of the
	// preemption grace period; its goroutine was left to die on its next
	// budget poll and anything it computes is discarded.
	Abandoned bool

	// Panic details (Outcome == Panicked).
	PanicValue string
	PanicStack string
	PanicSite  string // the injection site when the panic was injected
}

// Do runs body under supervision and returns the verdict. The body receives
// a derived context — cancelled on preemption — and the pulse it must beat
// (directly or by attaching it to its runctl budgets). A disabled watchdog
// runs the body inline on the caller's goroutine.
//
// The body must confine itself to state the caller will not touch until Do
// returns, or to state safe for concurrent use: an abandoned body keeps
// executing after Do has returned.
func (w Watchdog) Do(ctx context.Context, body func(ctx context.Context, pulse *runctl.Pulse)) Verdict {
	pulse := &runctl.Pulse{}
	start := time.Now()
	if !w.Enabled() {
		v := runBody(ctx, pulse, body)
		v.Elapsed = time.Since(start)
		v.Beats = pulse.Count()
		return v
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan Verdict, 1) // buffered: an abandoned body must not block
	go func() { done <- runBody(wctx, pulse, body) }()

	ticker := time.NewTicker(w.poll())
	defer ticker.Stop()
	lastBeat := pulse.Count()
	lastProgress := start
	preempt := Completed
	for preempt == Completed {
		select {
		case v := <-done:
			v.Elapsed = time.Since(start)
			v.Beats = pulse.Count()
			return v
		case <-ticker.C:
			now := time.Now()
			if b := pulse.Count(); b != lastBeat {
				lastBeat, lastProgress = b, now
			}
			switch {
			case w.Ceiling > 0 && now.Sub(start) >= w.Ceiling:
				preempt = PreemptedCeiling
			case w.Stall > 0 && now.Sub(lastProgress) >= w.Stall:
				preempt = PreemptedStall
			}
		}
	}

	// Preempt: cancel the body's context so budget polls abort it, then give
	// it a grace period to unwind before abandoning the goroutine.
	cancel()
	grace := time.NewTimer(w.grace())
	defer grace.Stop()
	v := Verdict{Outcome: preempt}
	select {
	case bv := <-done:
		// The body unwound in time; keep the preemption outcome but carry
		// any panic details the unwinding produced.
		v.PanicValue, v.PanicStack, v.PanicSite = bv.PanicValue, bv.PanicStack, bv.PanicSite
	case <-grace.C:
		v.Abandoned = true
	}
	v.Elapsed = time.Since(start)
	v.Beats = pulse.Count()
	return v
}

// runBody executes body behind a recover boundary and reports the outcome.
func runBody(ctx context.Context, pulse *runctl.Pulse, body func(context.Context, *runctl.Pulse)) (v Verdict) {
	defer func() {
		if p := recover(); p != nil {
			v.Outcome = Panicked
			v.PanicValue = fmt.Sprint(p)
			v.PanicStack = string(debug.Stack())
			if ip, ok := p.(runctl.InjectedPanic); ok {
				v.PanicSite = ip.Site
			}
		}
	}()
	body(ctx, pulse)
	return Verdict{Outcome: Completed}
}
