#!/bin/sh
# The simulator runs on one thread: simulated processes are contexts on the
# kernel's thread and the progress monitor works from a timer signal, so
# instruments are single-writer values. Fail if src/ brings back a second
# thread, a TSan annotation, or an atomic read-modify-write (which would
# only be needed for a second writer). util/log.cpp's mutex stays: it
# serves programs that embed one simulator per thread.
#
# Usage: lint_single_thread.sh SRC_DIR
src=${1:?usage: lint_single_thread.sh SRC_DIR}
if grep -rnE 'std::thread|std::condition_variable|__tsan_|fetch_add|fetch_sub|compare_exchange|\.exchange\(' "$src"; then
  echo "single-thread invariant broken: see the lines above" >&2
  exit 1
fi
