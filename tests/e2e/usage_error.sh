#!/bin/sh
# A usage error: the command after "--" must exit 2, never run on a partial
# parse, and its stderr must contain every TEXT (the rejected flag, or the
# paths it names).
#
# Usage: usage_error.sh TEXT... -- COMMAND [ARG...]
want=
while [ $# -gt 0 ] && [ "$1" != -- ]; do
  want="$want$1
"
  shift
done
shift
err=$("$@" 2>&1 >/dev/null)
rc=$?
printf '%s\n' "$err"
[ "$rc" -eq 2 ] || { echo "expected exit 2, got $rc"; exit 1; }
printf '%s' "$want" | while IFS= read -r text; do
  printf '%s' "$err" | grep -qF -- "$text" || { echo "stderr does not name $text"; exit 1; }
done
