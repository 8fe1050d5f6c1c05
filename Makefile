# Development targets.  Everything runs offline; ruff and mypy are
# optional (not pinned as dependencies): without them `make lint` /
# `make typecheck` say SKIPPED, and `make ci` repeats it in its last
# line so a green run cannot be mistaken for one that checked them.

PYTHON     ?= python
PYTHONPATH := src
export PYTHONPATH

# "ok" when the optional tool $(1) is on PATH (so its stage ran, and
# passed, by the time anything prints this), else that it was skipped.
tool_status = $(shell command -v $(1) >/dev/null 2>&1 && echo ok \
	|| echo "SKIPPED (tool not installed)")

# "ok" when there is a C compiler for `make native-smoke` to build with.
native_status = $(shell { command -v cc || command -v gcc; } >/dev/null 2>&1 \
	&& echo ok || echo "SKIPPED (no C compiler)")

# Number of `repro verify --inject` modes `make selftest` covers.
inject_modes = $(shell PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c \
	'from repro.verify.cli import INJECTS; print(len(INJECTS))')

.PHONY: test test-nocc verify lint hazards typecheck bench figures selftest chaos \
	chaos-smoke race-smoke determinism-smoke native-smoke sanitize-smoke \
	fuzz-smoke e2e-smoke ci

# Tier-1: everything under tests/, which includes the golden analysis
# fingerprints (test_analysis_golden.py) and the many-components
# regression (test_many_components.py).  pyproject.toml's addopts
# already pass -q: one more would drop the summary line.
test:
	$(PYTHON) -m pytest -x

# Tier-1 without a C compiler: PATH holds only the interpreter (linked
# into a temporary bin directory, since `python` may be a shell shim that
# needs bash) and the cache is fresh, so both native libraries raise
# NativeUnavailable and every Python body runs.
test-nocc:
	@bin=$$(mktemp -d); cache=$$(mktemp -d); \
	ln -s "$$($(PYTHON) -c 'import sys; print(sys.executable)')" \
		"$$bin/python"; \
	PATH=$$bin XDG_CACHE_HOME=$$cache "$$bin/python" -m pytest -x; \
	status=$$?; rm -rf "$$bin" "$$cache"; \
	if [ $$status -eq 0 ]; then echo "test-nocc: clean"; \
	else echo "test-nocc: FAILED"; fi; exit $$status

# The full static-analysis gate: project linter + DAG hazard coverage +
# schedule feasibility + memory/symbolic audits (python -m repro
# verify), plus ruff/mypy when available, plus the test suite.
verify: lint hazards typecheck test

# Fault-injection self-tests: every `--inject` mode of
# repro.verify.cli.INJECTS must make its own pass exit 1 and report one
# of the codes the mode declares (a mode that slips through means an
# analyzer has been lobotomized), and must change only the fields it
# names (a mode that corrupts more can trip codes it does not own).
selftest:
	$(PYTHON) -m pytest -q tests/test_verify_cli.py -k \
		"test_inject_trips_its_code or test_inject_changes_only_its_target"

# Chaos matrix: every (fault kind x scheduler policy) cell must finish
# all tasks and produce a trace the R6xx resilience auditor, the S2xx
# schedule verifier, and (limplock cells) the R7xx degradation auditor
# all accept; the run ends with the asserted hedging A/B.
chaos:
	$(PYTHON) benchmarks/bench_resilience.py --chaos --verify

# Bounded chaos gate for CI: the same matrix + hedging A/B on a smaller
# problem so the whole run stays in smoke-test territory.
chaos-smoke:
	@$(PYTHON) benchmarks/bench_resilience.py --chaos --verify \
		--grid 32 >/dev/null; \
	status=$$?; \
	if [ $$status -eq 0 ]; then echo "chaos-smoke: clean"; \
	else echo "chaos-smoke: FAILED"; fi; exit $$status

# Quick concurrency gate: `repro verify` runs a sync-traced threaded
# factorization and a threaded solve on its factor at two workers, and
# audits each against the DAG it ran (C702 publish order, C705 lost
# wakeups, C707 sync provenance).  lap3d at size 22 (n = 10648, ~1 s):
# its solve (4.1e6 flops) clears MIN_SOLVE_FLOPS (2e6) twice over, so
# the solve trace has a real tree of tasks (148 at two workers), not the
# two-task chain of a solve under the floor.
race-smoke:
	@$(PYTHON) -m repro verify --matrix lap3d --size 22 --cores 2 \
		--only concurrency >/dev/null; \
	status=$$?; \
	if [ $$status -eq 0 ]; then echo "race-smoke: clean"; \
	else echo "race-smoke: FAILED"; fi; exit $$status

# Native-code gate: cold-build repro/kernels/native.c and
# repro/graph/analysis.c into a fresh temporary cache directory
# (compiler, flags and build seconds are printed for each), then
# factorize one small matrix per factotype in both drivers and check the
# factors against the NumPy kernels (1e-12) and each other (bit for
# bit), solve each with 1, 3 and 16 columns (native sweeps vs NumPy
# bodies; the C DAG executor, MIN_SOLVE_FLOPS lowered so that it runs a
# tree of tasks, at 1, 2 and 3 workers vs the sequential solve, plus one
# traced run through the C7xx audit), factorize a matrix above the unit
# floor and one whose panels split at 1-3 workers (bit for bit; the
# executor has one pop order, work stealing), and one with zero pivots
# on narrow panels whose blocks
# come back to Python inside the executor (the sequential driver's
# factor or error), and
# analyse one matrix per generator family with the C helper and with
# the Python bodies (identical arrays).  No C compiler: SKIPPED, exit 0.
native-smoke:
	@$(PYTHON) benchmarks/native_smoke.py; \
	status=$$?; \
	if [ $$status -eq 0 ]; then echo "native-smoke: clean"; \
	else echo "native-smoke: FAILED"; fi; exit $$status

# Sanitizer gate: build both C libraries with AddressSanitizer and
# UndefinedBehaviorSanitizer (REPRO_CFLAGS, which repro.cbuild appends
# to its flags and its cache key) into a private temporary cache, preload
# libasan into the uninstrumented interpreter (leak checks off: CPython
# keeps its arenas to the end), and run the differential fuzzer (the
# C-vs-NumPy plan draws among them), the corrupted-plan checks and
# native-smoke.  The differential tests of the three analysis passes
# (test_analysis_passes.py) and of the native solve
# (test_native_solve.py: the narrow steps' plain loops, the executor's
# solve tasks) run under it too.  Any finding aborts the process, so the
# gate fails.  No C compiler or no libasan: SKIPPED.
SANITIZE_CFLAGS := -fsanitize=address,undefined \
	-fno-sanitize-recover=undefined -fno-omit-frame-pointer
sanitize-smoke:
	@cc=$$(command -v cc || command -v gcc); \
	asan=$$([ -n "$$cc" ] && $$cc -print-file-name=libasan.so); \
	if [ -z "$$cc" ] || [ ! -e "$$asan" ]; then \
		echo "sanitize-smoke: SKIPPED (no C compiler or libasan)"; \
		exit 0; fi; \
	cache=$$(mktemp -d); \
	export XDG_CACHE_HOME=$$cache ASAN_OPTIONS=detect_leaks=0 \
		REPRO_CFLAGS="$(SANITIZE_CFLAGS)"; \
	LD_PRELOAD=$$asan $(PYTHON) -m pytest -q tests/test_differential.py \
		tests/test_indexcache.py \
		-k "test_differential or corrupt or checkers" \
		>/dev/null \
	&& LD_PRELOAD=$$asan $(PYTHON) -m pytest -q \
		tests/test_analysis_passes.py tests/test_native_solve.py \
		>/dev/null \
	&& LD_PRELOAD=$$asan $(PYTHON) benchmarks/native_smoke.py >/dev/null; \
	status=$$?; rm -rf "$$cache"; \
	if [ $$status -eq 0 ]; then echo "sanitize-smoke: clean"; \
	else echo "sanitize-smoke: FAILED"; fi; exit $$status

# D8xx determinism gate: a seeded same-seed double-run of the machine
# simulator (with the fault scenario) and of the stream-burst simulator
# on a small matrix; their canonical trace fingerprints must match
# bit-for-bit and every tie-break/provenance audit must pass.
determinism-smoke:
	@$(PYTHON) -m repro verify --matrix lap2d --size 16 \
		--only determinism >/dev/null; \
	status=$$?; \
	if [ $$status -eq 0 ]; then echo "determinism-smoke: clean"; \
	else echo "determinism-smoke: FAILED"; fi; exit $$status

# Differential fuzzing gate: Hypothesis matrices (random patterns,
# grids, arrowheads, 0 x 0 / 1 x 1, zero diagonals) through every
# factotype x {sequential, threaded} x nrhs in {1, 3} with two
# refactorizations, against SciPy's SuperLU; memoised assembly maps
# against fresh ones; the C amalgamation against its Python body.  Also
# part of tier-1; this runs it alone.
fuzz-smoke:
	@$(PYTHON) -m pytest -q tests/test_differential.py >/dev/null; \
	status=$$?; \
	if [ $$status -eq 0 ]; then echo "fuzz-smoke: clean"; \
	else echo "fuzz-smoke: FAILED"; fi; exit $$status

# The wall-clock benchmark's own gate (BENCHMARK.json): every workload
# end to end at smoke scale (a failed operation or a wrong answer makes
# run.py exit non-zero), then the benchmark's tests — they live outside
# tests/, so nothing else runs them.
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke
	$(PYTHON) -m pytest benchmarks/e2e -q

# Everything CI runs: tier-1 tests with and without a C compiler, the
# static-analysis gate (lint/hazards/schedule/memory/symbolic/
# concurrency/determinism + ruff/mypy when installed), the
# fault-injection self-tests, the
# live-race gate, the determinism gate, the bounded chaos gate, the
# native-kernel gate, the sanitizer gate, the differential fuzzer and the
# wall-clock benchmark's smoke run.  make
# stops at the first failing stage, so reaching the recipe means every
# stage that ran passed; the summary names the ones that did not run.
ci: verify test-nocc selftest race-smoke determinism-smoke chaos-smoke \
	native-smoke sanitize-smoke fuzz-smoke e2e-smoke
	@echo "ci: lint ok, ruff $(call tool_status,ruff), hazards ok," \
		"mypy $(call tool_status,mypy), test ok, test-nocc ok," \
		"selftest ok ($(inject_modes) inject modes caught)," \
		"race-smoke ok, determinism-smoke ok, chaos-smoke ok," \
		"native-smoke $(native_status), sanitize-smoke $(native_status)," \
		"fuzz-smoke ok, e2e-smoke ok"

lint:
	$(PYTHON) -m repro verify --only lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff: SKIPPED (tool not installed)"; \
	fi

hazards:
	$(PYTHON) -m repro verify --matrix lap2d --size 30 --only \
		hazards,schedule,resilience,health,concurrency,determinism,symbolic

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy: SKIPPED (tool not installed)"; \
	fi

bench:
	$(PYTHON) benchmarks/bench_table1.py
	$(PYTHON) benchmarks/bench_fig2_cpu_scaling.py
	$(PYTHON) benchmarks/bench_fig3_gemm_streams.py
	$(PYTHON) benchmarks/bench_fig4_gpu_scaling.py

figures:
	$(PYTHON) benchmarks/make_figures.py
