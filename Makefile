.PHONY: all build test check audit fuzz bench-smoke serve-smoke profile clean

all: build

build:
	dune build @all

test:
	dune runtest

# The CI gate: everything compiles (including tests and benches), the test
# suite passes, `tbaac optimize` runs end to end with structured stats on a
# real workload (once with every pass on, PRE and copy propagation
# included, validating the IR after each), an optimized simulator run
# audits clean, and the auditor catches the miscompiles a fault-injected
# oracle causes on the production pass path (the audit must exit nonzero
# with at least one violation line).
check:
	dune build @all
	dune runtest
	dune exec bin/tbaac.exe -- optimize --workload format --licm --slf --dse --stats
	dune exec bin/tbaac.exe -- optimize --workload format --licm --slf --dse --jobs 2 --stats
	dune exec bin/tbaac.exe -- optimize --workload m3cg --minv --copyprop --pre --licm --slf --dse --verify-ir --stats
	dune exec bin/tbaac.exe -- run --workload slisp --audit --quiet
	out=$$(dune exec bin/tbaac.exe -- audit --workload m3cg --fault-rate 0.05) \
	  && { echo "$$out"; echo "fault-injected audit found no violation"; exit 1; }; \
	  echo "$$out" | grep 'violation:'
	dune exec bin/tbaac.exe -- fuzz --count 25 --seed 1 --out ""

# The full differential-testing sweep: 200 generated programs through the
# 27-configuration matrix and all four oracles, eleven larger (size 3)
# programs that include the null-zone regressions (seeds 3045 and 5047),
# then a fault-injected run that must produce shrunk, replaying
# counterexamples (the fuzzer testing itself). Slower than `check`; run
# before releases.
fuzz:
	dune exec bin/tbaac.exe -- fuzz --count 200 --seed 1
	dune exec bin/tbaac.exe -- fuzz --size 3 --seed 3045 --count 1
	dune exec bin/tbaac.exe -- fuzz --size 3 --seed 5040 --count 10
	dune exec bin/tbaac.exe -- fuzz --count 25 --seed 1 --fault-rate 0.05

# The defense-in-depth gate: the whole workload suite through the guarded
# pipeline (IR validated after every pass) and the simulator under the
# dynamic soundness auditor — once with the paper's RLE configuration,
# once with the LICM/SLF/DSE clients stacked on top, so every client's
# claims are discharged on every dynamic workload, and once more under
# the open-world analysis (SMTypeRefs' forced merges of unbranded types).
# Fails on any quarantined pass or any no-alias claim contradicted by a
# concrete execution.
audit:
	dune exec bin/tbaac.exe -- audit
	dune exec bin/tbaac.exe -- audit --licm --slf --dse
	dune exec bin/tbaac.exe -- audit --world open

# The one timing harness (bench/smoke.ml on the bench/gate.ml harness;
# `tbaac experiment all` prints the paper's tables and figures): every
# leg times a production path — the alias-query cores and may_alias
# sweep, the two SMTypeRefs merge variants, the compiled simulator, the
# engine and optimizer cold (devirtualization/inlining on its own too)
# and after a one-procedure edit, the daemon fresh per batch and warm —
# in ms scaled by bench/e2e's kernel, and fails when its median exceeds
# the one recorded in BENCH_smoke.json by more than its bound (twice the
# recorded spread, at least 10%, under 25%), or when the timed legs and
# the snapshot's differ. Parse, typecheck and Engine.create must grow at
# most as n^1.2 from Gen.Scale 400 to 3200; on four or more cores the
# parallel legs keep their speedup floors. The untimed checks (updated
# engine = fresh engine, incremental = from scratch, the daemon's burst
# shed/retry) run after the samples.
# One run reports every failing gate and check. The recorded medians hold
# for the box and binary that wrote them, so CI runs the executable
# without an argument: every leg and check, no timed gate. Regenerate the
# snapshot with
#   dune exec bench/smoke.exe -- --write
# Last, every end-to-end workload runs for about two seconds, traced and
# untraced, and must finish with no failed operation (bench/e2e/README.md).
bench-smoke:
	dune exec bench/smoke.exe -- --check
	dune build @bench/e2e/smoke

# The daemon robustness gate: storm tbaad's dispatch stack with the
# seeded chaos harness (malformed JSON, ill-typed documents, oversized
# batches, deadline-busting queries, fault-injected engines) across
# several seeds (the load generator's shed/backoff burst runs in
# bench-smoke). Fails on any crash, any non-structured error, any
# unsound degraded answer, or any document that does not recover.
serve-smoke:
	dune build bin
	dune exec bin/tbaad.exe -- --chaos 1 --chaos-ops 400 --workers 2
	dune exec bin/tbaad.exe -- --chaos 2 --chaos-ops 400 --workers 2
	dune exec bin/tbaad.exe -- --chaos 3 --chaos-ops 400 --workers 2

# A sampling profile (bench/prof/sprof.ml): inclusive, self and leaf-chain
# tables. PROF_WHAT is scale (compiles of the 200-worker Gen.Scale
# document), pool (the generated-mix pool), paper (the ten workloads), ide
# (ide-session-shaped alias/modref lines and an edit every ten queries,
# served through Server.Dispatch.handle_line on the Gen.Scale document) or
# a workload name; sim-scale, sim-pool, sim-paper or sim-WORKLOAD optimize
# those programs once and sample only the simulator running them.
# PROF_SECONDS is the CPU time to sample, e.g.
#   make profile PROF_WHAT=sim-paper PROF_SECONDS=20
# Stacks are recorded at the next safe point, so allocating frames are
# over-weighted: confirm a hot frame with a timed ablation before
# rewriting it.
PROF_WHAT ?= scale
PROF_SECONDS ?= 10
profile:
	dune exec bench/prof/sprof.exe -- $(PROF_WHAT) $(PROF_SECONDS)

clean:
	dune clean
