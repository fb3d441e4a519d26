#!/bin/sh
# Trace export gates on NPB EP class S on the alpha4 grid.
#
#   determinism    a traced and profiled run writes valid trace JSON, and an
#                  unprofiled rerun writes it byte for byte
#   rerun          the same flags twice give a byte-identical trace and
#                  stdout (metrics JSON and profile JSON); the trace is
#                  renamed between runs so the "wrote ... to FILE" lines
#                  match too
#   metrics_json   the metrics snapshot, one JSON line among the run chatter,
#                  parses on an mgrid run, a pgrid run and the econ_smoke
#                  workload
#   fault_markers  fault markers travel as fault.injector span instants, so
#                  a faulted run's trace carries them
#
# Usage: trace.sh CHECK MGRUN SOURCE_DIR
check=${1:?usage: trace.sh CHECK MGRUN SOURCE_DIR}
mgrun=${2:?missing MGRUN}
src=${3:?missing SOURCE_DIR}
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cd "$d"
alpha4=$src/examples/grids/alpha4.ini
case $check in
  determinism)
    "$mgrun" --trace-out ep_trace.json --profile json --exe npb.ep --args S "$alpha4" > /dev/null
    python3 -m json.tool ep_trace.json > /dev/null
    "$mgrun" --trace-out ep_trace2.json --exe npb.ep --args S "$alpha4" > /dev/null
    cmp ep_trace.json ep_trace2.json
    ;;
  rerun)
    "$mgrun" --trace-out ep_r.json --profile json \
      --metrics json --exe npb.ep --args S "$alpha4" > ep_r1.out
    mv ep_r.json ep_r1.json
    "$mgrun" --trace-out ep_r.json --profile json \
      --metrics json --exe npb.ep --args S "$alpha4" > ep_r2.out
    cmp ep_r1.json ep_r.json
    cmp ep_r1.out ep_r2.out
    ;;
  metrics_json)
    "$mgrun" --metrics json --exe npb.ep --args S "$alpha4" > mgrid.out
    "$mgrun" --metrics json --platform pgrid --exe npb.ep --args S "$alpha4" > pgrid.out
    "$mgrun" --metrics json --workload "$src/examples/workloads/econ_smoke.ini" > econ.out
    for out in mgrid.out pgrid.out econ.out; do
      grep '^{' "$out" | python3 -m json.tool > /dev/null
    done
    ;;
  fault_markers)
    "$mgrun" --faults "$src/examples/grids/alpha4_faults.ini" \
      --trace-out f.json --exe npb.ep --args S "$alpha4" > /dev/null
    python3 -m json.tool f.json > /dev/null
    grep -q '"cat":"fault.injector"' f.json
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
