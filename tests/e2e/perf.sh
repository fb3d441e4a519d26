#!/bin/sh
# Incremental flow-sharing scope gates. Visit counts are exact event-driven
# quantities, not wall clock, so they gate on any machine.
#
#   flow_churn      on BM_FlowChurn's churn workload the incremental engine
#                   (/1) touches >= 5x fewer flows per recompute than the
#                   full-recompute oracle (/0); the medians over five
#                   repetitions of one iteration each are compared
#   flow_smoke_10k  the same invariant on flow_smoke's 10k-host tree: equal
#                   recompute counts, >= 5x fewer flow visits in total
#
# Usage: perf.sh CHECK BENCH_KERNEL_PERF FLOW_SMOKE
check=${1:?usage: perf.sh CHECK BENCH_KERNEL_PERF FLOW_SMOKE}
bench=${2:?missing BENCH_KERNEL_PERF}
fs=${3:?missing FLOW_SMOKE}
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cd "$d"
case $check in
  flow_churn)
    "$bench" --benchmark_filter='BM_FlowChurn' --benchmark_repetitions=5 \
      --benchmark_min_time=0.001 --benchmark_format=json > churn.json
    python3 - <<'EOF'
import json

def visits(name):
    with open("churn.json") as f:
        data = json.load(f)
    vals = [b["visits_per_recompute"] for b in data["benchmarks"]
            if b["name"].startswith(name) and b.get("aggregate_name") == "median"]
    assert vals, f"{name} missing"
    return vals[-1]

full = visits("BM_FlowChurn/0")
incr = visits("BM_FlowChurn/1")
print(f"visits/recompute: full {full:.1f}, incremental {incr:.1f}, "
      f"reduction {full / incr:.1f}x")
assert full / incr >= 5.0, f"incremental scope reduction {full / incr:.2f}x < 5x"
EOF
    ;;
  flow_smoke_10k)
    "$fs" --hosts 10000 --full-recompute > fs10k_full.out
    "$fs" --hosts 10000 > fs10k_incr.out
    # scope FILE: "VISITS RECOMPUTES" from the run's recompute scope line.
    scope() {
      sed -n 's/^recompute scope: \([0-9]*\) flow visit(s) over \([0-9]*\) recompute(s).*/\1 \2/p' "$1"
    }
    set -- $(scope fs10k_full.out) $(scope fs10k_incr.out)
    test $# -eq 4 || { echo "scope line missing"; exit 1; }
    echo "flow_smoke 10k visits: full $1, incremental $3, over $2 recomputes"
    test "$2" -eq "$4" || { echo "recompute counts diverged: $2 vs $4"; exit 1; }
    test "$3" -gt 0 && test "$1" -ge $(($3 * 5)) || { echo "visit reduction under 5x"; exit 1; }
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
