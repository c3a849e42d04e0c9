#!/usr/bin/env bash
# Pins the reproduced paper output: runs `experiments -all` and compares
# its stdout byte for byte with experiments_output.txt. A difference
# prints the diff and fails. After an intended change to the paper
# numbers, regenerate the pinned file with --update and review its diff.
#
# Usage: scripts/check_experiments.sh [--update]
set -euo pipefail
cd "$(dirname "$0")/.."

want=experiments_output.txt
got="$(mktemp)"
trap 'rm -f "$got"' EXIT

echo "check_experiments: running experiments -all" >&2
go run ./cmd/experiments -all >"$got"

if [ "${1:-}" = "--update" ]; then
  cp "$got" "$want"
  echo "check_experiments: rewrote $want" >&2
  exit 0
fi
if ! cmp -s "$got" "$want"; then
  echo "check_experiments: experiments -all differs from $want:" >&2
  diff "$want" "$got" >&2 || true
  exit 1
fi
echo "check_experiments: output matches $want" >&2
