GO ?= go

.PHONY: build test check bench bench-json bench-check perfbench-test golden fuzz-smoke soak fsck-smoke loadgen-smoke

build:
	$(GO) build ./...

# Tier-1: the full suite, as the roadmap verifies it. Shuffled: test order
# dependencies are bugs, and a durable-service codebase full of resume and
# recovery paths is exactly where hidden state between tests would hide.
test: build
	$(GO) test -shuffle=on ./...

# Robustness tier: static analysis plus the short-mode suite under the race
# detector (the resilience paths — cancellation, checkpointing, panic
# isolation, injection hooks — are exercised concurrently there).
check: build
	$(GO) vet ./...
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Machine-readable benchmark snapshot: one JSON record per benchmark (name,
# ns/op, allocs/op, custom metrics) in a date-stamped file for cross-commit
# diffing. Staged through a file, not a pipe: a bench failure (e.g. the
# per-package timeout on a slow host) must fail the target, not silently
# truncate the snapshot.
bench-json:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ -timeout 40m ./... > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y-%m-%d).json < bench.out
	@rm bench.out

# Bench-regression gate: run a fresh benchmark snapshot and diff it against
# the newest committed BENCH_*.json. Timing columns may grow up to
# BENCH_THRESHOLD percent (CI raises it — shared runners are noisy); the
# quality columns (detected / vectors / untestable) may drift up to
# BENCH_QUALITY percent in the bad direction — the bench per-fault budgets
# bind, so those counts move with machine speed and load — while the
# collapsed fault count must not change at all, and a vanished benchmark is
# lost coverage. The baseline is read from HEAD, not the working tree, so a
# freshly generated snapshot with today's date can never be compared against
# itself. The report lands in bench-compare.txt; CI uploads it as an
# artifact. The defaults look loose because benchtime=1x with binding
# budgets makes even B/op swing ~2x run to run: this gate catches collapses,
# not drift — tighten -threshold via benchjson directly on quiet hardware
# with a longer benchtime.
BENCH_THRESHOLD ?= 200
BENCH_QUALITY ?= 25
BENCH_BASELINE ?= $(shell git ls-files 'BENCH_*.json' | sort | tail -1)
bench-check:
	@test -n "$(BENCH_BASELINE)" || \
		{ echo "bench-check: no committed BENCH_*.json baseline"; exit 2; }
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ -timeout 40m ./... > bench.out
	$(GO) run ./cmd/benchjson -o bench-new.json < bench.out
	@rm bench.out
	git show HEAD:$(BENCH_BASELINE) > bench-baseline.json
	@$(GO) run ./cmd/benchjson -compare bench-baseline.json bench-new.json \
		-threshold $(BENCH_THRESHOLD) -quality-threshold $(BENCH_QUALITY) \
		> bench-compare.txt; \
	status=$$?; cat bench-compare.txt; exit $$status

# The work-bounded benchmark's own tests (perfbench/): its reference fault
# simulator against hand-derived s27 results, and its output checks against
# corrupted outputs. They are the independent check on the fault simulator
# and compaction. perfbench is a module of its own, so `go test ./...` at
# the root does not reach it.
perfbench-test:
	$(GO) -C perfbench test ./...

# Short fuzz pass over the .bench parser: no panics, accepted inputs
# round-trip. CI runs this on every push; run with a longer -fuzztime to dig.
fuzz-smoke:
	$(GO) test ./internal/bench/ -run=^$$ -fuzz=FuzzParse -fuzztime=10s

# Re-bless the cmd/atpg golden files after an intentional output change.
golden:
	$(GO) test ./cmd/atpg/ -run TestPassStatisticsGolden -update

# Short fault-injection soak under the race detector: every injected failure
# (engine panic, watchdog stall, audit miscompare) must yield a crash-repro
# bundle that -repro reproduces — serially, and again through the parallel
# fault pipeline (WORKERS=4). CI runs the mode x workers grid as a matrix.
soak:
	$(GO) build -race -o atpg-race ./cmd/atpg
	$(GO) build -race -o atpgd-race ./cmd/atpgd
	$(GO) build -race -o atpgload-race ./cmd/atpgload
	./scripts/soak.sh panic
	./scripts/soak.sh stall
	./scripts/soak.sh corrupt
	WORKERS=4 ./scripts/soak.sh panic
	WORKERS=4 ./scripts/soak.sh stall
	WORKERS=4 ./scripts/soak.sh corrupt
	./scripts/soak.sh daemon
	./scripts/soak.sh fsck
	./scripts/soak.sh load

# Overload smoke: a scaled-down chaos loadgen run — 2 tenants x 20 jobs
# against a race-built daemon with one SIGKILL mid-run — asserting the same
# report contract as the full soak leg (zero lost/duplicated jobs, fairness,
# bounded submit p99). Fast enough to run while iterating on the dispatcher.
loadgen-smoke:
	$(GO) build -race -o atpgd-race ./cmd/atpgd
	$(GO) build -race -o atpgload-race ./cmd/atpgload
	./atpgload-race -daemon ./atpgd-race \
		-daemon-args "-jobs 2 -max-queue 16 -admit-every 250ms -admit-throttle-age 2s -admit-shed-age 5s" \
		-tenants 2 -jobs 20 -kill -timeout 5m -report loadgen-report.json

# Durable-state corruption smoke: flip a byte in a sealed artifact, require
# atpg fsck to quarantine it and heal the tree, tear the trace mid-record and
# require an in-place repair, and require the recovered run's output to be
# bit-identical to an undamaged reference. The fast standalone slice of the
# soak grid for iterating on internal/durable.
fsck-smoke:
	$(GO) build -race -o atpg-race ./cmd/atpg
	./scripts/soak.sh fsck
