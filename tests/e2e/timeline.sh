#!/bin/sh
# Timeline gates on a timelined + traced NPB EP S run on the alpha4 grid.
#
#   determinism     an untraced rerun must reproduce the traced run's CSV
#                   byte for byte: two runs prove rerun determinism, and the
#                   differing flag set proves the timeline does not depend on
#                   span recording.
#   counter_tracks  the trace is valid JSON and carries the sampled series as
#                   Perfetto counter tracks ("ph":"C"), CPU utilisation among
#                   them.
#
# Usage: timeline.sh determinism|counter_tracks MGRUN SOURCE_DIR
check=${1:?usage: timeline.sh determinism|counter_tracks MGRUN SOURCE_DIR}
mgrun=${2:?missing MGRUN}
src=${3:?missing SOURCE_DIR}
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cd "$d"
"$mgrun" --timeline ep_tl.csv --timeline-interval 0.01 \
  --trace-out ep_tt.json --exe npb.ep --args S "$src/examples/grids/alpha4.ini" > /dev/null
case $check in
  determinism)
    "$mgrun" --timeline ep_tl_u.csv \
      --timeline-interval 0.01 --exe npb.ep --args S "$src/examples/grids/alpha4.ini" > /dev/null
    cmp ep_tl.csv ep_tl_u.csv
    ;;
  counter_tracks)
    python3 -m json.tool ep_tt.json > /dev/null
    grep -q '"ph":"C"' ep_tt.json
    grep -q 'vos.cpu.util' ep_tt.json
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
