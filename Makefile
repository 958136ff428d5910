# Tier-1 verification targets (mirrored by .github/workflows/ci.yml).
#
#   make test        - full test suite (collection regressions fail fast)
#   make lint        - byte-compile + ruff check (API-surface regressions)
#   make chaos       - reliability suite under an ambient fault matrix
#   make serve-chaos - serving suite clean + under a serving fault matrix
#   make bench-smoke - quick-mode batch-engine benchmark (ISSUE-1 gate)
#   make bench       - full benchmark suite with reproduced paper tables
#   make perf-smoke  - every repo-benchmark workload briefly, answers checked
#   make ledger      - append this commit's row to benchmarks/history/quick.jsonl
#   make verify      - what CI runs

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test lint chaos serve-chaos bench-smoke bench perf-smoke ledger verify

test:
	python -m pytest -x -q

# Byte-compiles every tree (catches syntax errors even without ruff
# installed), runs ruff's pyflakes/isort gate when available (CI always
# installs it; see ruff.toml for the selected rules), then runs the
# pure-stdlib substrate contract linter (src/repro/analysis/README.md)
# — that one runs even without ruff.
lint:
	python -m compileall -q src tests benchmarks examples
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipped ruff check (ran compileall only)"; \
	fi
	python -m repro.analysis src benchmarks examples

# Chaos gate: the reliability suite twice — once clean, once with a
# representative fault matrix armed through the environment
# (src/repro/reliability/README.md documents the spec grammar).  Tests
# that pin their own failpoints are immune to the ambient matrix; the
# ambient-environment test runs its recovery check under it for real.
chaos: serve-chaos
	python -m pytest tests/reliability -q
	RED_FAILPOINTS="store.put_many:io_error@0.3;store.get_many:corrupt@0.3" \
	RED_FAILPOINT_SEED=7 \
	python -m pytest tests/reliability -q

# Serving chaos gate (ISSUE-10): the serving suite twice — once clean,
# once with crash/io_error faults armed at the plane's own failpoint
# sites (serving.accept / serving.shard_call / serving.merge).  Shard
# crashes here are real os._exit(86) deaths; the supervisor's respawn
# budget and the degraded tier carry the suite through them.
serve-chaos:
	python -m pytest tests/serving -q
	RED_FAILPOINTS="serving.shard_call:crash@0.3;serving.accept:io_error@0.2;serving.merge:io_error@0.1" \
	RED_FAILPOINT_SEED=11 \
	python -m pytest tests/serving -q

bench-smoke:
	RED_BENCH_QUICK=1 python -m pytest benchmarks/bench_batch_engine.py benchmarks/bench_cycle_compile.py benchmarks/bench_sweep_vectorized.py benchmarks/bench_cache_plane.py benchmarks/bench_device_plane.py benchmarks/bench_resilience.py benchmarks/bench_serving.py -q

# bench_batch_engine.py / bench_cycle_compile.py / bench_sweep_vectorized.py
# / bench_cache_plane.py / bench_device_plane.py / bench_resilience.py /
# bench_serving.py time wall-clock manually (no pytest-benchmark fixture),
# so --benchmark-only would skip them; run them separately to keep the
# full-mode gates in the target.
bench:
	python -m pytest benchmarks/ -o python_files="bench_*.py" --benchmark-only -s
	python -m pytest benchmarks/bench_batch_engine.py benchmarks/bench_cycle_compile.py benchmarks/bench_sweep_vectorized.py benchmarks/bench_cache_plane.py benchmarks/bench_device_plane.py benchmarks/bench_resilience.py benchmarks/bench_serving.py -q -s

# Repo-benchmark smoke (perfbench/README.md): each workload for 2 s
# with its answer checks, including served answers byte-identical to
# the in-process ones, then one traced run of each workload, which
# fails if a boundary the per-layer tracer wraps (an evaluation layer,
# a store call, the paper pass's cycle, fidelity and network layers, or
# a serving hop such as ShardedRunner.__call__ or ShardSupervisor.call)
# was renamed or removed.  Fails unless every result line (the last
# line of a run) reports correct: true and failed: 0.
perf-smoke:
	@for run in "interactive 0" "served 0" "bulk 0" "interactive 1" "served 1" "bulk 1"; do \
		set -- $$run; \
		python3 perfbench/run.py --workload $$1 --seed 1 --seconds 2 --trace $$2 \
		| python3 -c 'import json, sys; lines = sys.stdin.read().splitlines(); \
			print(*lines, sep="\n"); result = json.loads(lines[-1]); \
			ok = result["correct"] is True and result["failed"] == 0; \
			sys.exit(0 if ok else f"perf-smoke: {sys.argv[1]} is not correct with 0 failed")' \
			"$$1 --trace $$2" || exit 1; \
	done

# Performance ledger (benchmarks/ledger.py): the three repo-benchmark
# workloads for 20 s each at seed 1, then bench-smoke, appended as one
# JSON line tagged with the commit, nproc and the Python and numpy
# versions.  Takes about 2 minutes on a 2-vCPU host; commit the row.
ledger:
	python3 benchmarks/ledger.py

verify: lint test chaos bench-smoke perf-smoke
