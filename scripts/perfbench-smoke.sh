#!/usr/bin/env bash
# Runs one round of every workload BENCHMARK.json lists, with --trace 0,
# and fails unless each workload's result line (the last line perfbench
# prints) reads "correct":true with no failed operation. perfbench checks
# every output against its reference simulator (perfbench/refsim.go) but
# exits 0 even when a check fails, so the result line is what decides.
#
# Usage, from the root of the repository: scripts/perfbench-smoke.sh
# Needs jq.
set -euo pipefail
status=0
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	last=$(bash perfbench/run.sh --workload "$w" --seconds 1 --trace 0 | tail -n 1)
	echo "$w: $last"
	if [ "$(jq -r '.correct == true and .failed == 0' <<<"$last" 2>/dev/null)" != true ]; then
		echo "perfbench-smoke: $w: outputs not correct" >&2
		status=1
	fi
done
exit "$status"
