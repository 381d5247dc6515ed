#!/bin/sh
# Kill-and-resume audit for the soak journal:
#
#   sh scripts/soak_resume.sh        (or: make soak-resume)
#
# Runs a reference sweep, then the same sweep SIGKILLed mid-run after a
# few cases have been checkpointed to the journal, then resumes it on a
# different --domains count. The resumed SOAK.json must be byte-identical
# to the uninterrupted reference — that is the journal's whole contract.
# Runs the built binary directly (not through `dune exec`) so the kill
# hits the soak process itself.
set -eu
cd "$(dirname "$0")/.."

CASES=${CASES:-20}
dune build bin/soak_main.exe
BIN=_build/default/bin/soak_main.exe
dir=_build/soak_resume
rm -rf "$dir"
mkdir -p "$dir"

echo "== reference sweep ($CASES cases, 1 domain) =="
"$BIN" --cases "$CASES" --seed 7 --domains 1 \
  --journal "$dir/ref.journal" --out "$dir/ref.json" > /dev/null

echo "== interrupted sweep (SIGKILL mid-run) =="
"$BIN" --cases "$CASES" --seed 7 --domains 1 \
  --journal "$dir/int.journal" --out "$dir/int.json" > /dev/null &
pid=$!
# Wait for a few checkpointed case records, then SIGKILL. On a fast box
# the sweep may finish first — then the resume below is a pure journal
# replay, which must still reproduce the reference document.
i=0
while [ "$i" -lt 200 ]; do
  n=$(grep -cE '^(ok|case)' "$dir/int.journal" 2>/dev/null || true)
  [ "${n:-0}" -ge 3 ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
  i=$((i + 1))
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

echo "== resume (2 domains) =="
"$BIN" --cases "$CASES" --seed 7 --domains 2 --resume \
  --journal "$dir/int.journal" --out "$dir/int.json" > /dev/null

cmp "$dir/ref.json" "$dir/int.json"
echo "soak-resume: OK (interrupted+resumed report byte-identical to uninterrupted)"
