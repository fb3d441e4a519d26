#!/bin/sh
# Fluid network model gates: flow_smoke on its generated tree, and the hybrid
# model against its two bounds on the alpha4 grid.
#
#   determinism_10k    two same-seed 10k-host runs print byte-identical
#                      stdout (report and metrics JSON); the model's reason
#                      to exist is a grid this size done in seconds
#   determinism_100k   the same at 100k hosts
#   event_cost         at 1000 hosts the flow model runs >= 10x fewer kernel
#                      events than packet mode (flow_smoke exits 1 otherwise)
#   hybrid_escalation  hybrid with half the pair ports escalated delivers
#                      every byte
#   hybrid_bounds      hybrid decides per connection, so it equals its bounds
#                      at the ends of its selector: no selector is flow and
#                      '*' is packet. The job and benchmark-time lines match,
#                      and so does the metrics JSON minus the counters of the
#                      half the bound does not build. Each run writes to a
#                      file before it is filtered, so a failing run fails
#                      the check.
#   timeline_cap       a 10k-host --timeline run fills the sampler's probe
#                      cap, still records the per-machine vos.cpu.util.*
#                      series, and names the dropped-probe count
#
# Usage: flow.sh CHECK FLOW_SMOKE MGRUN SOURCE_DIR
check=${1:?usage: flow.sh CHECK FLOW_SMOKE MGRUN SOURCE_DIR}
fs=${2:?missing FLOW_SMOKE}
mgrun=${3:?missing MGRUN}
src=${4:?missing SOURCE_DIR}
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cd "$d"
case $check in
  determinism_10k)
    "$fs" --hosts 10000 > flow_run1.out
    "$fs" --hosts 10000 > flow_run2.out
    cmp flow_run1.out flow_run2.out
    ;;
  determinism_100k)
    "$fs" --hosts 100000 > flow_100k_run1.out
    "$fs" --hosts 100000 > flow_100k_run2.out
    cmp flow_100k_run1.out flow_100k_run2.out
    ;;
  event_cost)
    "$fs" --hosts 1000 --quiet --compare-packet
    ;;
  hybrid_escalation)
    "$fs" --hosts 200 --pairs 16 --netmodel hybrid --quiet
    ;;
  hybrid_bounds)
    lines() {
      out=$1; shift
      "$mgrun" --exe npb.is --args S "$@" "$src/examples/grids/alpha4.ini" > "$out.run"
      grep -E '^(job completed|benchmark time)' "$out.run" > "$out"
      test "$(wc -l < "$out")" -eq 2
    }
    lines flow.lines --netmodel flow
    lines hybrid.lines --netmodel hybrid
    lines packet.lines --netmodel packet
    lines hybrid_all.lines --netmodel hybrid --netmodel-detail '*'
    cmp hybrid.lines flow.lines
    cmp hybrid_all.lines packet.lines
    # metrics OUT "PREFIX..." MGRUN_FLAG...: the run's metrics without the
    # keys under each PREFIX.
    metrics() {
      out=$1; drop=$2; shift 2
      "$mgrun" --exe npb.is --args S --metrics json "$@" "$src/examples/grids/alpha4.ini" > "$out.run"
      python3 "$src/tests/e2e/metrics.py" drop $drop < "$out.run" > "$out"
    }
    metrics flow.json "" --netmodel flow
    metrics hybrid.json "net.packet. net.tcp." --netmodel hybrid
    metrics packet.json "" --netmodel packet
    metrics hybrid_all.json net.flow. --netmodel hybrid --netmodel-detail '*'
    cmp hybrid.json flow.json
    cmp hybrid_all.json packet.json
    ;;
  timeline_cap)
    "$fs" --hosts 10000 --timeline tl.csv > fs.out
    grep -E '^wrote timeline \(4096 series, [0-9]+ samples, [1-9][0-9]* probe\(s\) dropped past the cap\)' fs.out
    grep -q '^vos\.cpu\.util\.' tl.csv
    ;;
  *)
    echo "unknown check: $check" >&2
    exit 2
    ;;
esac
