#!/usr/bin/env bash
# Replay the "$ setpart ARGS" lines of a golden transcript and print the
# transcript they give: each command line, then its stdout and, only when
# it exits non-zero, an "[exit N]" line and its stderr.  Run it from the
# repository root and compare:
#
#   bash -eo pipefail tests/golden/replay.sh tests/golden/ordered.txt > out.txt
#   diff tests/golden/ordered.txt out.txt
set -u
stderr=$(mktemp)
trap 'rm -f "$stderr"' EXIT
grep '^\$ setpart ' "$1" | while IFS= read -r line; do
  printf '%s\n' "$line"
  code=0
  eval "PYTHONPATH=src python -m setpart ${line#\$ setpart }" < /dev/null 2> "$stderr" || code=$?
  if [ "$code" -ne 0 ]; then
    printf '[exit %s]\n' "$code"
    cat "$stderr"
  fi
done
