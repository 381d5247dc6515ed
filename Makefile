.PHONY: all build test bench bench-json ci par-check soak soak-smoke soak-resume msgs-check net-check explore-check serve serve-smoke clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Full-quota run that refreshes the checked-in perf-trajectory file.
# Quota 1 s: the slowest row (B5 seed one-shot, ~0.9 s/run) needs it to
# get enough samples for a clean OLS fit — ci.sh gates r^2 >= 0.7 on the
# committed file's derived-key rows.
# --quota 3: at 1 s the 10-100 ms rows get too few samples for stable
# OLS fits on a noisy host, and ci.sh gates r^2 >= 0.7 on the committed
# file (the B5/B2D slow group separately enforces a >= 8 s quota).
bench-json:
	dune exec bench/main.exe -- --quota 3 --json BENCH_lp.json

# Build + tests + a tiny-quota bench smoke run (same as scripts/ci.sh).
ci:
	sh scripts/ci.sh

# Determinism audit: the experiment reports must be byte-identical no
# matter how many worker domains run the sweeps.
par-check:
	dune build bin/experiments_main.exe
	dune exec bin/experiments_main.exe -- --domains 1 e1 e9 e10 e15 > _build/EXP_d1.txt
	dune exec bin/experiments_main.exe -- --domains 2 e1 e9 e10 e15 > _build/EXP_d2.txt
	cmp _build/EXP_d1.txt _build/EXP_d2.txt
	@echo "par-check: OK (1-domain and 2-domain reports are byte-identical)"

# Randomized chaos soak: seeded (scenario x fault-plan) cases under the
# online invariant monitor and a per-case watchdog (event budget + wall
# deadline), violations shrunk to minimal reproducing plans, watchdogged
# or worker-crashed cases quarantined with a shrunk repro. Writes
# SOAK.json (schema "maaa-soak/2"):
#   seed, mutant, case_events, cases, sync_cases, async_cases -- the grid
#   checks, violations_total, invariants{...}      -- per-invariant totals
#     (validity, agreement, contraction, double-output, malformed-message)
#   missing_outputs, party_failures                -- liveness / isolation
#   quarantined                                    -- watchdogged/crashed cases
#   worst_final_diameter{case, value, eps}         -- tightest agreement seen
#   quarantined_cases[{name, seed, sync, reason, plan, shrunk_plan,
#     shrink_tries, shrink_minimal}]
#   violating_cases[{name, seed, sync, invariants, violations,
#     first_violation, plan, shrunk_plan, shrink_tries, shrink_minimal}]
# Quarantined cases are excluded from every aggregate (a truncated run's
# monitor tables are not trustworthy). The report contains no wall-clock
# data and is byte-identical for any --domains count and for an
# interrupted-and-resumed sweep (--journal FILE / --resume) vs an
# uninterrupted one. The journal is a case file (schema "maaa-case/1",
# shared with explore): its violating and quarantined rows replay with
# `dune exec bin/explore_main.exe -- --replay _build/SOAK.journal`.
# Exit code 1 iff any invariant was violated (expected with --mutant
# non-contracting | premature-output).
soak:
	dune exec bin/soak_main.exe -- --cases 500 --seed 7 --journal _build/SOAK.journal

soak-smoke:
	dune exec bin/soak_main.exe -- --smoke --domains 2 --out _build/SOAK_smoke.json

# Kill-and-resume audit: SIGKILL a journaled sweep mid-run, resume it on a
# different --domains count, and require the byte-identical SOAK.json.
soak-resume:
	sh scripts/soak_resume.sh

# Exact per-class message-count check on one pinned configuration
# (n=8, ts=2, ta=1, D=2, lockstep, honest) across the unbatched rBC
# stack (closed-form model), the batched message layer (pinned packet
# counts, identical logical votes) and the EW quadratic protocol
# ((3 + ta)n^2 per iteration). Deterministic; any drift fails.
msgs-check:
	dune exec bin/msgs_check.exe

# Sim-as-oracle differential gate for the networked runtime: every
# pinned-grid case (D in {1,2}, n in {4,8}, sync + async policies,
# clean / silent / input-poisoning corruption arms) runs three times --
# on the simulator backend, on the loopback TCP perfect-link backend,
# and on the TCP backend under frame chaos (drop/duplicate/reorder/
# delay-spike/connection-flap). The three results must be structurally
# identical after masking wire statistics, and the chaos run's online
# monitor must record zero violations. Exit 1 on any mismatch.
net-check:
	dune exec bin/net_check_main.exe

# Bounded model checking of the pinned small configuration: DFS over all
# delivery interleavings the engine can produce (chooser seam in
# lib/sim/engine), every execution graded by the online monitor. Gates:
# the honest n=3 D=1 space is exhaustively clean, both protocol mutants
# (non-contracting, premature-output) are rediscovered with shrunk,
# replay-verified (plan, schedule) repros, and DPOR-style persistent
# sets + canonical-state dedup beat naive enumeration >= 5x. Exit 1 on
# any gate failure. Ad-hoc exploration: `dune exec bin/explore_main.exe
# -- --n 4 --ts 1 --adversary crash:3:2 --depth 3 --out Q.tsv`, then
# `--replay Q.tsv`. --replay takes any case file ("maaa-case/1"): an
# explore quarantine or a soak journal.
explore-check:
	dune exec bin/explore_main.exe -- --check

# Serve-throughput visibility: push N requests through the batch core
# (no sockets) and print requests/sec. Measured, not gated; any failed
# request exits non-zero.
serve-smoke:
	dune exec bin/serve_main.exe -- --throughput-smoke 64

# The agreement front door: a line-oriented TCP service that batches
# client agreement requests per connection and runs each on its own
# engine, over --domains N worker domains (protocol in
# lib/harness/serve.mli).
# --port 0 binds an ephemeral port and prints "listening <port>".
serve:
	dune exec bin/serve_main.exe -- --port 7171

clean:
	dune clean
