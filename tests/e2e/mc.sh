#!/bin/sh
# Fault-schedule explorer gates: mgrun --explore over
# examples/grids/alpha4_explore.ini on NPB EP class S.
#
#   determinism      two clean explorations print a byte-identical branch log
#   pruned_verdicts  MG_MC_MUTATION=1 arms a seeded availability-accounting
#                    bug in the injector; the explorer must exit 3 and report
#                    fault.availability. hash_pruning = false replays every
#                    schedule to the end: each schedule's outcome (verdict,
#                    end time, final digest) must match between the pruned
#                    and the full run line for line, with the same violation
#                    count and the same minimal reproducing [fault ...] plan.
#   heap_fallbacks   a faulted EP run schedules every fault closure inline:
#                    sim.kernel.eventfn_heap_fallbacks is 0
#
# Usage: mc.sh CHECK MGRUN SOURCE_DIR
check=${1:?usage: mc.sh CHECK MGRUN SOURCE_DIR}
mgrun=${2:?missing MGRUN}
src=${3:?missing SOURCE_DIR}
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cd "$d"
grids=$src/examples/grids
# explore SPEC: the exploration's stdout; the exit status is the explorer's.
explore() {
  "$mgrun" --config "$grids/alpha4.ini" --explore "$1" --exe npb.ep --args S \
    --parts vm0.ucsd.edu:1,vm1.ucsd.edu:1
}
case $check in
  determinism)
    explore "$grids/alpha4_explore.ini" > mc_run1.out
    explore "$grids/alpha4_explore.ini" > mc_run2.out
    cmp mc_run1.out mc_run2.out
    ;;
  pruned_verdicts)
    export MG_MC_MUTATION=1
    sed 's/^hash_pruning = true/hash_pruning = false/' "$grids/alpha4_explore.ini" > alpha4_full.ini
    grep -q "^hash_pruning = false" alpha4_full.ini
    for spec in "$grids/alpha4_explore.ini" alpha4_full.ini; do
      out=$(basename "$spec")
      status=0
      explore "$spec" > "$out.out" || status=$?
      test "$status" -eq 3 || { echo "$spec: expected exit 3, got $status"; exit 1; }
      # "#n [schedule] pruned@t digest=X outcome" -> "[schedule] outcome"
      sed -n 's/^#[0-9]* //p' "$out.out" |
        sed 's/\] pruned@[^ ]* digest=[0-9a-f]* /] /' > "$out.outcomes"
      test -s "$out.outcomes"
      grep "^violations:" "$out.out" >> verdicts.txt
      sed -n '/^minimal reproducing fault plan/,$p' "$out.out" > "$out.plan"
    done
    grep -q "fault.availability" alpha4_explore.ini.out
    cmp alpha4_explore.ini.outcomes alpha4_full.ini.outcomes
    cat verdicts.txt
    test "$(sort -u verdicts.txt | wc -l)" -eq 1
    grep -q "^\[fault " alpha4_full.ini.plan
    cmp alpha4_explore.ini.plan alpha4_full.ini.plan
    ;;
  heap_fallbacks)
    "$mgrun" --faults "$grids/alpha4_faults.ini" --metrics json \
      --exe npb.ep --args S "$grids/alpha4.ini" > mc_faults.out
    n=$(python3 "$src/tests/e2e/metrics.py" counter sim.kernel.eventfn_heap_fallbacks < mc_faults.out)
    echo "sim.kernel.eventfn_heap_fallbacks = $n"
    test "$n" -eq 0
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
