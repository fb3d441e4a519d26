#!/bin/sh
# Timeline gates on NPB runs on the alpha4 grid.
#
#   determinism     an untraced rerun must reproduce a traced EP S run's CSV
#                   byte for byte: two runs prove rerun determinism, and the
#                   differing flag set proves the timeline does not depend on
#                   span recording.
#   counter_tracks  the trace is valid JSON and carries the sampled series as
#                   Perfetto counter tracks ("ph":"C"), CPU utilisation among
#                   them.
#   observing       spans, profiles, the progress monitor and the timeline
#                   sampler are probes. On EP, MG and IS S each observed run
#                   prints the plain run's job line and metrics JSON, minus
#                   the span accounting (obs.span.*); with --timeline minus
#                   only sim.kernel.events_executed, since the sampler's ticks
#                   are kernel events. The progress monitor writes to stderr
#                   only, so there the whole stdout must match. Every run
#                   writes to a file before it is filtered, so its exit
#                   status (1 when NPB verification fails) stops the check.
#
# Usage: timeline.sh determinism|counter_tracks|observing MGRUN SOURCE_DIR
check=${1:?usage: timeline.sh determinism|counter_tracks|observing MGRUN SOURCE_DIR}
mgrun=${2:?missing MGRUN}
src=${3:?missing SOURCE_DIR}
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cd "$d"
alpha4=$src/examples/grids/alpha4.ini
traced_run() {
  "$mgrun" --timeline ep_tl.csv --timeline-interval 0.01 \
    --trace-out ep_tt.json --exe npb.ep --args S "$alpha4" > /dev/null
}
case $check in
  determinism)
    traced_run
    "$mgrun" --timeline ep_tl_u.csv \
      --timeline-interval 0.01 --exe npb.ep --args S "$alpha4" > /dev/null
    cmp ep_tl.csv ep_tl_u.csv
    ;;
  counter_tracks)
    traced_run
    python3 -m json.tool ep_tt.json > /dev/null
    grep -q '"ph":"C"' ep_tt.json
    grep -q 'vos.cpu.util' ep_tt.json
    ;;
  observing)
    observed() { python3 "$src/tests/e2e/metrics.py" drop "$@"; }
    for exe in ep mg is; do
      run() {
        "$mgrun" --metrics json "$@" --exe npb.$exe --args S "$alpha4"
      }
      run > plain.out
      run --progress=0.2 > progress.out 2> progress.err
      cmp plain.out progress.out
      observed obs.span. < plain.out > plain.txt
      run --trace-out observed.json > traced.out
      observed obs.span. < traced.out > traced.txt
      cmp plain.txt traced.txt
      run --profile json > profiled.out
      observed obs.span. < profiled.out > profiled.txt
      cmp plain.txt profiled.txt
      observed sim.kernel.events_executed < plain.out > plain_tl.txt
      run --timeline observed.csv --timeline-interval 0.01 > timelined.out
      observed sim.kernel.events_executed < timelined.out > timelined.txt
      cmp plain_tl.txt timelined.txt
    done
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
