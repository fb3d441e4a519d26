#!/bin/sh
# Grid economy gates on the shipped workloads.
#
#   determinism      two seeded 10k-job econ_smoke runs print a
#                    byte-identical report and metrics JSON, and the run
#                    schedules every flow stage-in closure inline:
#                    sim.kernel.eventfn_heap_fallbacks is 0
#   broker_policies  grid_economy exits non-zero unless the broker policies
#                    give measurably different deadline-miss rates and the
#                    crash run resubmits
#   million_day      the million-job day-in-the-life runs to the end
#
# Usage: econ.sh CHECK MGRUN GRID_ECONOMY SOURCE_DIR
check=${1:?usage: econ.sh CHECK MGRUN GRID_ECONOMY SOURCE_DIR}
mgrun=${2:?missing MGRUN}
economy=${3:?missing GRID_ECONOMY}
src=${4:?missing SOURCE_DIR}
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cd "$d"
econ=$src/examples/workloads/econ_smoke.ini
case $check in
  determinism)
    "$mgrun" --metrics json --workload "$econ" > econ_run1.out
    "$mgrun" --metrics json --workload "$econ" > econ_run2.out
    cmp econ_run1.out econ_run2.out
    n=$(python3 "$src/tests/e2e/metrics.py" counter sim.kernel.eventfn_heap_fallbacks < econ_run1.out)
    echo "sim.kernel.eventfn_heap_fallbacks = $n"
    test "$n" -eq 0
    ;;
  broker_policies)
    "$economy"
    ;;
  million_day)
    "$mgrun" --workload "$src/examples/workloads/million_day.ini"
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
