#!/bin/sh
# CI entry point: tier-1 verification plus a bench smoke run.
#
#   sh scripts/ci.sh        (or: make ci)
#
# The smoke run uses a tiny per-benchmark quota — it exists to prove the
# bechamel suite and the JSON emitter still work, not to produce stable
# numbers. Refresh the committed BENCH_lp.json with `make bench-json`.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== lib/ size gate (.ml + .mli lines) =="
# lib/ should shrink, not grow: the ceiling is the count when the gate
# went in, lowered as lib/ shrinks. A change that raises it says why in
# CHANGES.md.
lib_ceiling=15246
lib_lines=$(find lib \( -name '*.ml' -o -name '*.mli' \) -type f -exec cat {} + | wc -l)
echo "lib/: $lib_lines lines (ceiling $lib_ceiling)"
if [ "$lib_lines" -gt "$lib_ceiling" ]; then
  echo "ci: lib/ has $lib_lines lines, above the ceiling $lib_ceiling" >&2
  exit 1
fi

echo "== determinism gate: committed experiment report and soak (2 worker domains) =="
# the full report and the 500-case seed-7 soak must regenerate byte for
# byte: a change to the RNG streams or to the engine's event order shows
# here first (~10 s together)
dune exec bin/experiments_main.exe -- --domains 2 > _build/EXP_full.txt 2>&1
cmp _build/EXP_full.txt experiments_output.txt
dune exec bin/soak_main.exe -- --cases 500 --seed 7 --domains 2 \
  --out _build/SOAK_full.json > /dev/null
cmp _build/SOAK_full.json SOAK.json

echo "== chaos soak smoke (2 worker domains) =="
# exits 1 on any monitor violation — a real-protocol soak must be clean
dune exec bin/soak_main.exe -- --smoke --domains 2 --out _build/SOAK_smoke.json
grep -q '"schema": "maaa-soak/2"' _build/SOAK_smoke.json
grep -q '"violations_total": 0' _build/SOAK_smoke.json
grep -q '"quarantined": 0' _build/SOAK_smoke.json

echo "== soak smoke: batched message layer =="
# identical case grid, combined-packet egress: must grade just as clean
dune exec bin/soak_main.exe -- --smoke --domains 2 --message-layer batched \
  --out _build/SOAK_batched.json
grep -q '"message_layer": "batched"' _build/SOAK_batched.json
grep -q '"violations_total": 0' _build/SOAK_batched.json
grep -q '"quarantined": 0' _build/SOAK_batched.json

echo "== soak smoke: EW quadratic protocol =="
# drawn crash, lag, poison and spam corruptions run on EW itself; the
# ΠAA-only draws run silent
dune exec bin/soak_main.exe -- --smoke --domains 2 --protocol ew \
  --out _build/SOAK_ew.json
grep -q '"protocol": "ew"' _build/SOAK_ew.json
grep -q '"violations_total": 0' _build/SOAK_ew.json
grep -q '"quarantined": 0' _build/SOAK_ew.json

echo "== soak watchdog smoke (injected stuck case) =="
# case 2 is replaced by an unbounded spammer: the per-case event budget
# must quarantine exactly that case (exit 0 — quarantine is not a
# violation) while the rest of the sweep grades clean
dune exec bin/soak_main.exe -- --cases 6 --seed 7 --domains 2 \
  --inject-stuck 2 --case-events 300000 --out _build/SOAK_stuck.json
grep -q '"quarantined": 1' _build/SOAK_stuck.json
grep -q '"reason": "budget-exhausted' _build/SOAK_stuck.json
grep -q '"violations_total": 0' _build/SOAK_stuck.json

echo "== soak CLI validation (one-line errors, exit 2) =="
for bad in "--cases 0" "--cases x" "--domains 0" "--seed banana" \
    "--mutant bogus" "--wall -1" "--resume" "--inject-stuck 99 --cases 5" \
    "--message-layer bogus" "--message-layer reference" \
    "--protocol bogus" "--message-layer" \
    "--protocol" "--transport bogus" "--transport" \
    "--protocol ew --mutant premature-output" \
    "--n 4 --ts 1 --protocol ew --adversary equiv:3:1:0" \
    "--protocol ew --message-layer batched" \
    "--update-kernel centroid" \
    "--cases 6 --smoke" "--smoke --cases 6"; do
  rc=0
  dune exec bin/soak_main.exe -- $bad --out /dev/null >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: soak '$bad' should exit 2, got $rc" >&2
    exit 1
  fi
done

echo "== soak kill-and-resume =="
sh scripts/soak_resume.sh

echo "== msgs-check (pinned per-class message counts) =="
dune exec bin/msgs_check.exe

echo "== net-check (sim-as-oracle differential grid) =="
# every pinned case on sim, loopback TCP, and TCP under frame chaos:
# results must be identical and the chaos monitors clean (exit 1 if not).
# ~16 s on a 2-vCPU host; the timeout turns a pump that falls back to
# idling one select timeout per wire tick (minutes) into a CI failure
timeout 120 dune exec bin/net_check_main.exe

echo "== explore-check (bounded model checking, pinned gates) =="
# DFS over all delivery interleavings of the pinned n=3 D=1 config:
# honest space exhaustively clean, both mutants rediscovered with
# replay-verified shrunk repros, DPOR + state dedup >= 5x vs naive
dune exec bin/explore_main.exe -- --check

echo "== explore quarantine round trip =="
# the premature-output mutant must quarantine, and every quarantined
# shrunk repro must replay (exit 1 from the first run is the expected
# "violations found" signal, not a failure)
rc=0
dune exec bin/explore_main.exe -- --mutant premature-output --depth 1 \
  --out _build/EXPLORE_quarantine.tsv >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "ci: explore mutant run should exit 1 (violations), got $rc" >&2
  exit 1
fi
dune exec bin/explore_main.exe -- --replay _build/EXPLORE_quarantine.tsv
# a quarantine file of the previous schema (maaa-explore-quarantine/3)
# must be refused with one line and exit 2, not replayed
sed '1s|^maaa-case/1|maaa-explore-quarantine/3|' \
  _build/EXPLORE_quarantine.tsv > _build/EXPLORE_quarantine_v3.tsv
rc=0
dune exec bin/explore_main.exe -- --replay _build/EXPLORE_quarantine_v3.tsv \
  >/dev/null 2>_build/EXPLORE_v3.err || rc=$?
if [ "$rc" -ne 2 ] || [ "$(wc -l < _build/EXPLORE_v3.err)" -ne 1 ]; then
  echo "ci: explore --replay of a /3 quarantine should exit 2 with one line, got $rc" >&2
  exit 1
fi

echo "== soak journal cross-replay through explore =="
# a soak journal is a case file: its violating rows replay through
# explore_main --replay (exit 1 from the sweep is the expected
# "violations found" signal)
rc=0
dune exec bin/soak_main.exe -- --cases 2 --seed 3 --domains 1 \
  --mutant premature-output --journal _build/SOAK_mutant.journal \
  --out /dev/null >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "ci: soak mutant sweep should exit 1 (violations), got $rc" >&2
  exit 1
fi
dune exec bin/explore_main.exe -- --replay _build/SOAK_mutant.journal \
  > _build/SOAK_mutant.replay
cat _build/SOAK_mutant.replay
grep -Eq '^replayed [1-9][0-9]*/[1-9]' _build/SOAK_mutant.replay
# a row torn by a SIGKILL (cut mid-field, no "." sentinel) is skipped
# and counted, as soak --resume drops it; a bad %-escape still exits 2
sed '$ s/.\{5\}$//' _build/SOAK_mutant.journal > _build/SOAK_torn.journal
dune exec bin/explore_main.exe -- --replay _build/SOAK_torn.journal \
  > _build/SOAK_torn.replay
grep -q '^skipped 1 torn row' _build/SOAK_torn.replay
sed '2 s/\t\.$/\tx=%zz\t./' _build/SOAK_mutant.journal > _build/SOAK_bad.journal
rc=0
dune exec bin/explore_main.exe -- --replay _build/SOAK_bad.journal \
  >/dev/null 2>_build/SOAK_bad.err || rc=$?
if [ "$rc" -ne 2 ] || [ "$(wc -l < _build/SOAK_bad.err)" -ne 1 ]; then
  echo "ci: explore --replay of a bad %-escape row should exit 2 with one line, got $rc" >&2
  exit 1
fi
# a journal of the previous schema (maaa-soak-journal/2) is refused by
# --resume with one line and exit 2
sed '1s|^maaa-case/1|maaa-soak-journal/2|' _build/SOAK_mutant.journal \
  > _build/SOAK_mutant_v2.journal
rc=0
dune exec bin/soak_main.exe -- --cases 2 --seed 3 --domains 1 \
  --mutant premature-output --journal _build/SOAK_mutant_v2.journal --resume \
  --out /dev/null >/dev/null 2>_build/SOAK_v2.err || rc=$?
if [ "$rc" -ne 2 ] || [ "$(wc -l < _build/SOAK_v2.err)" -ne 1 ]; then
  echo "ci: soak --resume of a /2 journal should exit 2 with one line, got $rc" >&2
  exit 1
fi

echo "== explore CLI validation (one-line errors, exit 2) =="
for bad in "--mode bogus" "--mode" "--mutant bogus" "--adversary bogus" \
    "--adversary crash:x:2" "--n 0" "--n x" "--d 0" "--ts -1" "--eps 0" \
    "--eps x" "--delta 0" "--depth -1" "--max-execs 0" "--protocol bogus" \
    "--out" "--replay" "--frobnicate" "--n 3 --ts 1" \
    "--protocol ew --mutant premature-output" \
    "--n 4 --ts 1 --protocol ew --adversary equiv:3:1:0" \
    "--check --mutant premature-output" "--replay x.tsv --protocol ew"; do
  rc=0
  dune exec bin/explore_main.exe -- $bad >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: explore '$bad' should exit 2, got $rc" >&2
    exit 1
  fi
done
rc=0
dune exec bin/explore_main.exe -- --replay /nonexistent.tsv >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "ci: explore '--replay /nonexistent.tsv' should exit 2, got $rc" >&2
  exit 1
fi

echo "== serve/net_check CLI validation (one-line errors, exit 2) =="
# the socket end-to-end path (handshake, sim + net answers) is covered
# by test_net.ml under `dune runtest` above; here we pin the front
# door's argument validation contract
for bad in "--port x" "--port 99999" "--port" "--host" "--domains 0" \
    "--max-conns 0" "--max-conns" "--bogus"; do
  rc=0
  dune exec bin/serve_main.exe -- $bad >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: serve '$bad' should exit 2, got $rc" >&2
    exit 1
  fi
done
rc=0
dune exec bin/net_check_main.exe -- --bogus >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "ci: net_check '--bogus' should exit 2, got $rc" >&2
  exit 1
fi

echo "== serve throughput smoke (printed, not gated) =="
# visibility only: requests/sec through the batch core, one engine per
# request; any failed request makes the smoke itself exit non-zero
dune exec bin/serve_main.exe -- --throughput-smoke 64
# the same batch over 2 worker domains, so the multi-domain Pool.map path
# runs in CI too
dune exec bin/serve_main.exe -- --throughput-smoke 64 --domains 2

echo "== bench smoke run =="
dune exec bench/main.exe -- --smoke --json _build/BENCH_smoke.json
grep -q '"schema": "maaa-bench/2"' _build/BENCH_smoke.json
grep -q '"ocaml_version"' _build/BENCH_smoke.json
grep -q '"recommended_domains"' _build/BENCH_smoke.json
grep -q '"parallel_calibration"' _build/BENCH_smoke.json

echo "== bench derived keys =="
for key in b11_speedup_vote_storm b11_speedup_instances \
    b10_speedup_2_domains_vs_sequential \
    b10_speedup_4_domains_vs_sequential b12_reduction_batched_n12 \
    b12_batched_exponent b12_ew_exponent b12_max_n_batched b12_max_n_ew \
    b2_speedup_d3 b2_speedup_d4 b2_speedup_d5 \
    b14_instances_per_sec b14_maaa_instances_per_sec \
    b14_speedup_2_domains; do
  grep -q "\"$key\"" _build/BENCH_smoke.json || {
    echo "ci: missing derived key $key in BENCH_smoke.json" >&2
    exit 1
  }
done

# The B12 sweep rows are exact message counts (no timing involved), so
# they gate hard even in a smoke run: the combined-packet layer must cut
# >= 3x at n = 12 and both sweep paths must fit a quadratic exponent.
echo "== b12 communication gates =="
awk '
  function num(v) { gsub(/[,"]/, "", v); return v }
  /"b12_reduction_batched_n12"/ {
    v = num($2)
    seen++
    if (v == "null" || v + 0 < 3.0) {
      printf "ci: b12 batched reduction %s < 3x at n=12\n", v > "/dev/stderr"; failed = 1; exit 1
    }
  }
  /"b12_ew_exponent"/ || /"b12_batched_exponent"/ {
    v = num($2)
    seen++
    if (v == "null" || v + 0 < 1.6 || v + 0 > 2.4) {
      printf "ci: b12 exponent %s outside [1.6, 2.4] (%s)\n", v, $1 > "/dev/stderr"; failed = 1; exit 1
    }
  }
  END {
    if (failed) exit 1
    if (seen != 3) { print "ci: b12 gate keys missing" > "/dev/stderr"; exit 1 }
  }
' _build/BENCH_smoke.json

# The B14 saturation gate: on the committed full-quota file the best
# sequential small-instance throughput (EW path, n=4 D=1) must clear
# 10k instances/sec. Measured ~33k on the reference host; the margin
# absorbs container timing variance. Gated on BENCH_lp.json — smoke
# timings are noise.
echo "== committed b14 instance-saturation gate (>= 10000/sec) =="
awk '
  /"b14_instances_per_sec"/ {
    v = $2; gsub(/[,"]/, "", v)
    found = 1
    if (v == "null" || v + 0 < 10000.0) {
      printf "ci: b14_instances_per_sec %s < 10000 in BENCH_lp.json\n", v > "/dev/stderr"
      exit 1
    }
  }
  END { if (!found) { print "ci: b14_instances_per_sec missing in BENCH_lp.json" > "/dev/stderr"; exit 1 } }
' BENCH_lp.json

# The D=3 geometry-kernel gate: on the committed full-quota file the
# exact Hull3d diameter path must beat the pre-PR implicit-LP path by
# >= 25x (measured ~50-60x; the margin absorbs host variance). Gated on
# BENCH_lp.json, not the smoke run — smoke timings are noise.
echo "== committed b2 D=3 geometry-kernel gate (>= 25x) =="
awk '
  /"b2_speedup_d3"/ {
    v = $2; gsub(/[,"]/, "", v)
    found = 1
    if (v == "null" || v + 0 < 25.0) {
      printf "ci: b2_speedup_d3 %s < 25x in BENCH_lp.json\n", v > "/dev/stderr"
      exit 1
    }
  }
  END { if (!found) { print "ci: b2_speedup_d3 missing in BENCH_lp.json" > "/dev/stderr"; exit 1 } }
' BENCH_lp.json

# Timing rows feeding the derived speedup keys must come from clean OLS
# fits. Gated on the committed full-quota BENCH_lp.json, not the smoke
# run — a 0.02 s quota cannot produce stable r^2.
echo "== committed bench fit-quality gate (r^2 >= 0.7) =="
awk '
  /"name": "maaa\/(B5 implicit diameter|B8 subset enumeration|B9 16 objectives|B7 one rBC|B11 message layer\/rbc|B6 full protocol run\/n=12|B14 instance saturation)/ {
    line = $0
    if (match(line, /"r2": [^}]*/)) {
      r2 = substr(line, RSTART + 6, RLENGTH - 6)
      if (r2 == "null" || r2 + 0 < 0.7) {
        printf "ci: committed bench row with r2 %s < 0.7: %s\n", r2, line > "/dev/stderr"
        bad = 1
      }
      checked++
    }
  }
  END {
    if (bad) exit 1
    if (checked < 18) { printf "ci: only %d derived-key rows found in BENCH_lp.json\n", checked > "/dev/stderr"; exit 1 }
  }
' BENCH_lp.json

# Multicore honesty: with real parallelism available, 2 domains must
# actually beat sequential — >= 1.1x on the committed full-quota file
# (plus a >= 0.95x sanity floor on the smoke run, which only proves the
# pool is not pathologically slower). Whether parallelism is available is
# measured, not inferred from the core count: the bench records the
# median 2-domain ratio of a pure integer loop as "parallel_calibration"
# in its "b10" section header. Two parallel cores give ~2.0; a host that
# reports 2 cores but time-slices them gives ~1.0, and there every extra
# domain just adds minor-GC stop-the-world synchronisation. Each gate
# applies only when its file's calibration is >= 1.6, and otherwise
# skips with the measured ratio printed.
calibration() {
  sed -n 's/.*"b10": {.*"parallel_calibration": \([0-9.e+-]*\).*/\1/p' "$1"
}
parallel_ok() {
  [ -n "$1" ] && awk -v c="$1" 'BEGIN { exit !(c + 0 >= 1.6) }'
}
smoke_cal=$(calibration _build/BENCH_smoke.json)
if parallel_ok "$smoke_cal"; then
  echo "== b10 2-domain smoke sanity floor (calibration $smoke_cal, >= 0.95x) =="
  awk '
    /"b10_speedup_2_domains_vs_sequential"/ {
      v = $2; gsub(/[,"]/, "", v)
      found = 1
      if (v == "null" || v + 0 < 0.95) {
        printf "ci: b10 2-domain speedup %s < 0.95\n", v > "/dev/stderr"
        exit 1
      }
    }
    END { if (!found) { print "ci: b10 2-domain key missing" > "/dev/stderr"; exit 1 } }
  ' _build/BENCH_smoke.json
else
  echo "== b10 2-domain smoke floor skipped (parallel calibration ${smoke_cal:-missing} < 1.6) =="
fi
committed_cal=$(calibration BENCH_lp.json)
if grep -q '"b10": {"skipped_single_core": false' BENCH_lp.json \
    && parallel_ok "$committed_cal"; then
  echo "== committed b10 2-domain honesty gate (calibration $committed_cal, >= 1.1x) =="
  awk '
    /"b10_speedup_2_domains_vs_sequential"/ {
      v = $2; gsub(/[,"]/, "", v)
      found = 1
      if (v == "null" || v + 0 < 1.1) {
        printf "ci: committed b10 2-domain speedup %s < 1.1\n", v > "/dev/stderr"
        exit 1
      }
    }
    END { if (!found) { print "ci: b10 2-domain key missing in BENCH_lp.json" > "/dev/stderr"; exit 1 } }
  ' BENCH_lp.json
else
  echo "== committed b10 honesty gate skipped (BENCH_lp.json: single-core or parallel calibration ${committed_cal:-missing} < 1.6) =="
fi
echo "ci: OK"
