// Package parallel provides the supervised worker pool behind the fault loop
// of internal/hybrid: speculative out-of-order execution with strictly
// ordered commits. Every schedule pass, retry attempt and untestability
// screen runs through it; a serial run is the pool with one worker, which
// only ever runs the first uncommitted item that is not skipped.
//
// The model is a fixed list of items (the pass's fault targets) whose
// results must be merged in item order, where executing item i may depend on
// the merged outcome of every item before it. The pool runs items
// speculatively: a coordinator goroutine specs jobs from the committed state
// (Spec), workers execute them concurrently (Exec), and the coordinator
// merges results strictly in item order (Commit). When a commit changes the
// state later specs were derived from, the commit invalidates the current
// epoch: every in-flight and uncommitted speculative job is cancelled,
// re-specced from the new committed state, and re-dispatched. Stale results
// are identified by their epoch and dropped on arrival, so a misprediction
// costs wasted work, never wrong output — the committed sequence is exactly
// the sequence a serial loop would have produced.
//
// All Spec and Commit calls happen on the coordinator goroutine (the one
// that called Run), so they may touch shared run state without locks; only
// Exec runs concurrently, and it must confine itself to its spec.
package parallel

import "context"

// Verdict is a Commit's instruction to the pool.
type Verdict uint8

const (
	// Advance: the commit did not change the state earlier specs read;
	// speculative work remains valid.
	Advance Verdict = iota
	// Invalidate: the commit changed state that later specs may have read;
	// cancel and re-spec everything uncommitted.
	Invalidate
	// Stop: abandon the run (interrupt); uncommitted items are discarded.
	Stop
)

// Directive is what Commit returns: the validity verdict plus an optional
// new worker cap (0 leaves the cap unchanged). Lowering the cap never kills
// running jobs; it only gates new dispatches.
type Directive struct {
	Verdict Verdict
	Workers int
}

// Config parameterizes one pool run over Items items.
type Config[S, R any] struct {
	Items   int
	Workers int // initial dispatch cap (min 1)

	// Window bounds how far ahead of the commit cursor the pool specs and
	// dispatches (default 2*Workers+2). A bounded window caps both wasted
	// speculation after an invalidation and the state held by pending specs.
	Window int

	// Reset, if non-nil, runs on the coordinator at the start of every
	// epoch — once before the first Spec and again after every Invalidate —
	// so the speculation source (e.g. a shadow RNG) can resynchronize with
	// the committed state.
	Reset func()

	// Spec builds the job for item i from committed state only. Within an
	// epoch it is called in ascending item order, each item at most once.
	// Returning run=false skips the item: it is never dispatched and
	// commits without a Commit call. Skips must be stable within an epoch:
	// state committed later may only be reflected after an Invalidate.
	Spec func(i int) (spec S, run bool)

	// Exec runs one job on a worker goroutine. The context is cancelled
	// when the job's epoch is invalidated or the pool stops; Exec should
	// return promptly then (its result is dropped either way).
	Exec func(ctx context.Context, spec S) R

	// Commit merges item i's result on the coordinator, in item order.
	Commit func(i int, spec S, res R) Directive
}

type slotState uint8

const (
	slotUnspecced slotState = iota
	slotSkipped
	slotPending
	slotRunning
	slotReady
)

type slot[S, R any] struct {
	state slotState
	spec  S
	res   R
}

// Run drives the pool to completion and reports whether every item was
// committed (false: a Commit returned Stop). Run returns only after every
// worker goroutine it started has finished, so Exec closures never outlive
// the call.
func Run[S, R any](ctx context.Context, cfg Config[S, R]) bool {
	if cfg.Items <= 0 {
		return true
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Window < 1 {
		cfg.Window = 2*cfg.Workers + 2
	}

	type outcome struct {
		i     int
		epoch uint64
		res   R
	}
	slots := make([]slot[S, R], cfg.Items)
	results := make(chan outcome)
	var (
		epoch    uint64
		capacity = cfg.Workers
		inflight = 0
		cursor   = 0 // lowest uncommitted item
		specced  = 0 // next item to spec this epoch
	)
	// Each epoch gets its own cancellable context; the deferred closure always
	// cancels the *current* epoch's, and stale epochs are cancelled at the
	// invalidation that retired them.
	epochCtx := func() (context.Context, context.CancelFunc) {
		return context.WithCancel(ctx)
	}
	ectx, ecancel := epochCtx()
	defer func() { ecancel() }()

	drain := func() {
		ecancel()
		for inflight > 0 {
			<-results
			inflight--
		}
	}

	reset := func() {
		if cfg.Reset != nil {
			cfg.Reset()
		}
		specced = cursor
		for i := cursor; i < cfg.Items; i++ {
			slots[i] = slot[S, R]{}
		}
	}
	reset()

	dispatch := func() {
		limit := cursor + cfg.Window
		if limit > cfg.Items {
			limit = cfg.Items
		}
		for specced < limit {
			if spec, run := cfg.Spec(specced); run {
				slots[specced] = slot[S, R]{state: slotPending, spec: spec}
			} else {
				slots[specced] = slot[S, R]{state: slotSkipped}
			}
			specced++
		}
		for i := cursor; i < limit && inflight < capacity; i++ {
			if slots[i].state != slotPending {
				continue
			}
			slots[i].state = slotRunning
			inflight++
			go func(i int, ep uint64, sp S, c context.Context) {
				results <- outcome{i: i, epoch: ep, res: cfg.Exec(c, sp)}
			}(i, epoch, slots[i].spec, ectx)
		}
	}

	for cursor < cfg.Items {
		switch slots[cursor].state {
		case slotSkipped:
			cursor++
			continue
		case slotReady:
			d := cfg.Commit(cursor, slots[cursor].spec, slots[cursor].res)
			if d.Workers > 0 {
				capacity = d.Workers
			}
			switch d.Verdict {
			case Stop:
				drain()
				return false
			case Invalidate:
				cursor++
				epoch++
				ecancel()
				ectx, ecancel = epochCtx()
				reset()
			default:
				cursor++
			}
			continue
		}
		dispatch()
		if st := slots[cursor].state; st == slotSkipped || st == slotReady {
			continue
		}
		// The cursor item is running (or blocked behind stale in-flight work
		// holding the capacity): wait for any result.
		o := <-results
		inflight--
		if o.epoch == epoch && slots[o.i].state == slotRunning {
			slots[o.i].state = slotReady
			slots[o.i].res = o.res
		}
	}
	drain()
	return true
}
