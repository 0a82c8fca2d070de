package hybrid

import (
	"fmt"

	"gahitec/internal/fault"
	"gahitec/internal/logic"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/supervise"
)

// CheckpointVersion is the journal format version written by this build.
// Version 2 added the circuit structural fingerprint and the quarantine
// list; version 3 added the telemetry metrics snapshot; version 4 added
// per-quarantine crash-repro bundles and the governor's degradation log.
// Older journals are refused rather than resumed with unchecked assumptions.
const CheckpointVersion = 4

// Checkpoint is a resumable snapshot of a hybrid run, always taken at a
// fault boundary (never mid-search). It records everything Resume needs to
// continue the run bit-identically: the accumulated test set (replayed
// through a fresh fault simulator to rebuild detection state), the proven
// untestables, the schedule position, and the exact position in the seeded
// pseudo-random stream.
//
// The struct is plain JSON; runctl.SaveJSON writes it atomically so an
// interrupted writer never leaves a torn journal.
type Checkpoint struct {
	Version int    `json:"version"`
	Circuit string `json:"circuit"`

	// Fingerprint is the circuit's structural hash (netlist.Fingerprint).
	// The name alone cannot tell two revisions of a netlist apart, and
	// replaying a journal against a changed circuit silently produces
	// garbage; Validate refuses the mismatch instead.
	Fingerprint string `json:"fingerprint"`

	// RunID is the run correlation ID (Config.RunID), carried so a resumed
	// run keeps the identity it was submitted under. Optional — journals
	// from builds or runs without one still load (the field is informational
	// and never affects replayed state).
	RunID string `json:"run_id,omitempty"`

	Seed        int64 `json:"seed"`
	TotalFaults int   `json:"total_faults"`

	// PassIndex and FaultIndex locate the next fault to target: the
	// FaultIndex-th entry of the PassIndex-th pass's target snapshot.
	PassIndex  int `json:"pass_index"`
	FaultIndex int `json:"fault_index"`

	// PassStartSeqs is how many test sequences existed when the current
	// pass began; Resume replays that prefix, re-derives the pass's target
	// snapshot from the simulator, then replays the rest.
	PassStartSeqs int `json:"pass_start_seqs"`

	PreprocessDone bool `json:"preprocess_done"`

	// RNGDraws is the raw-draw position in the seeded random stream
	// (runctl.Rand); Resume fast-forwards a fresh stream to it.
	RNGDraws uint64 `json:"rng_draws"`

	// ElapsedNS is wall-clock time accumulated before the snapshot, so
	// resumed pass statistics keep counting from where the run left off.
	ElapsedNS int64 `json:"elapsed_ns"`

	TestSet    [][]string   `json:"test_set"` // one string per vector
	Targets    []SavedFault `json:"targets"`  // per TestSet entry
	Untestable []SavedFault `json:"untestable"`
	Passes     []PassStats  `json:"passes"`
	Phases     PhaseStats   `json:"phases"`
	FirstPanic string       `json:"first_panic,omitempty"`

	// Quarantine carries the faults set aside for the end-of-run retry
	// phase, in capture order, so a resumed run retries exactly what the
	// uninterrupted run would have.
	Quarantine []SavedQuarantine `json:"quarantine,omitempty"`

	// Obs is the telemetry metrics snapshot at this boundary (nil when the
	// run had no recorder). Resume merges it into the fresh recorder, so a
	// resumed run's final counters equal an uninterrupted run's — the
	// interrupted tail past the boundary never reaches the journal, exactly
	// like the rest of the run state.
	Obs *obs.Metrics `json:"obs,omitempty"`

	// Degradations is the governor's decision log up to this boundary, so a
	// resumed run reports the complete degradation history.
	Degradations []supervise.Decision `json:"degradations,omitempty"`

	// Scheduler is the governed run's memory-controller state at this
	// boundary (nil for an ungoverned run), so a resumed run keeps the
	// level, worker target and sample counts the uninterrupted run had.
	// Version-4 journals written without it resume with a fresh scheduler.
	Scheduler *supervise.SchedulerState `json:"scheduler,omitempty"`
}

// SavedQuarantine is the JSON form of one quarantine entry. The bundle
// rides along so a resumed run's retries replay from the same forked
// sub-seed as the uninterrupted run's would.
type SavedQuarantine struct {
	Fault    SavedFault        `json:"fault"`
	Reason   string            `json:"reason"`
	Attempts int               `json:"attempts,omitempty"`
	Resolved bool              `json:"resolved,omitempty"`
	Bundle   *supervise.Bundle `json:"bundle,omitempty"`
}

// SavedFault is the JSON form of a fault site. Node indices are stable for
// a given netlist, which Validate pins down via the circuit name and fault
// count.
type SavedFault struct {
	Node  int    `json:"node"`
	Pin   int    `json:"pin"`
	Stuck string `json:"stuck"`
}

func saveFault(f fault.Fault) SavedFault {
	return SavedFault{Node: int(f.Node), Pin: f.Pin, Stuck: f.Stuck.String()}
}

func (sf SavedFault) fault(c *netlist.Circuit) (fault.Fault, error) {
	if sf.Node < 0 || sf.Node >= len(c.Nodes) {
		return fault.Fault{}, fmt.Errorf("node %d out of range", sf.Node)
	}
	if len(sf.Stuck) != 1 {
		return fault.Fault{}, fmt.Errorf("bad stuck value %q", sf.Stuck)
	}
	v, err := logic.ParseV(sf.Stuck[0])
	if err != nil || !v.IsKnown() {
		return fault.Fault{}, fmt.Errorf("bad stuck value %q", sf.Stuck)
	}
	return fault.Fault{Node: netlist.ID(sf.Node), Pin: sf.Pin, Stuck: v}, nil
}

func saveFaults(fs []fault.Fault) []SavedFault {
	out := make([]SavedFault, len(fs))
	for i, f := range fs {
		out[i] = saveFault(f)
	}
	return out
}

func saveSeq(seq []logic.Vector) []string {
	out := make([]string, len(seq))
	for i, v := range seq {
		out[i] = v.String()
	}
	return out
}

func parseSeq(ss []string, nPI int) ([]logic.Vector, error) {
	out := make([]logic.Vector, len(ss))
	for i, s := range ss {
		v, err := logic.ParseVector(s)
		if err != nil {
			return nil, err
		}
		if len(v) != nPI {
			return nil, fmt.Errorf("vector %q has %d bits, circuit has %d inputs", s, len(v), nPI)
		}
		out[i] = v
	}
	return out, nil
}

// Validate checks that the checkpoint is internally consistent and belongs
// to this circuit and configuration. Resume calls it before touching any
// state; a mismatched seed or circuit is rejected rather than silently
// producing a non-reproducible run.
func (ck *Checkpoint) Validate(c *netlist.Circuit, cfg Config, totalFaults int) error {
	switch {
	case ck.Version != CheckpointVersion:
		return fmt.Errorf("hybrid: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	case ck.Circuit != c.Name:
		return fmt.Errorf("hybrid: checkpoint is for circuit %q, not %q", ck.Circuit, c.Name)
	case ck.Fingerprint != c.Fingerprint():
		return fmt.Errorf("hybrid: checkpoint fingerprint %s does not match circuit %q (%s): the netlist changed since the journal was written",
			ck.Fingerprint, c.Name, c.Fingerprint())
	case ck.Seed != cfg.Seed:
		return fmt.Errorf("hybrid: checkpoint seed %d does not match configured seed %d", ck.Seed, cfg.Seed)
	case ck.TotalFaults != totalFaults:
		return fmt.Errorf("hybrid: checkpoint has %d faults, fault list has %d", ck.TotalFaults, totalFaults)
	case ck.PassIndex < 0 || ck.PassIndex > len(cfg.Passes):
		return fmt.Errorf("hybrid: checkpoint pass %d outside the %d-pass schedule", ck.PassIndex, len(cfg.Passes))
	case ck.FaultIndex < 0:
		return fmt.Errorf("hybrid: negative fault index %d", ck.FaultIndex)
	case len(ck.Targets) != len(ck.TestSet):
		return fmt.Errorf("hybrid: %d targets for %d sequences", len(ck.Targets), len(ck.TestSet))
	case ck.PassStartSeqs < 0 || ck.PassStartSeqs > len(ck.TestSet):
		return fmt.Errorf("hybrid: pass start %d outside test set of %d", ck.PassStartSeqs, len(ck.TestSet))
	case len(ck.Passes) > len(cfg.Passes):
		return fmt.Errorf("hybrid: checkpoint has %d completed passes, schedule has %d", len(ck.Passes), len(cfg.Passes))
	}
	for _, ss := range ck.TestSet {
		if _, err := parseSeq(ss, len(c.PIs)); err != nil {
			return fmt.Errorf("hybrid: bad checkpoint sequence: %w", err)
		}
	}
	for _, sf := range append(append([]SavedFault(nil), ck.Targets...), ck.Untestable...) {
		if _, err := sf.fault(c); err != nil {
			return fmt.Errorf("hybrid: bad checkpoint fault: %w", err)
		}
	}
	for _, sq := range ck.Quarantine {
		if _, err := sq.Fault.fault(c); err != nil {
			return fmt.Errorf("hybrid: bad quarantined fault: %w", err)
		}
		if _, err := parseReason(sq.Reason); err != nil {
			return err
		}
		if sq.Bundle != nil {
			if err := sq.Bundle.Validate(); err != nil {
				return fmt.Errorf("hybrid: bad quarantine bundle: %w", err)
			}
		}
	}
	return nil
}
