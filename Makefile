PYTHON ?= python

# Keep in sync with .github/workflows/ci.yml and pyproject.toml.
RUFF_VERSION ?= 0.8.4

# Tier-1 test suite (the CI gate).
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Coverage gate (CI `coverage` job): the tier-1 suite must cover at
# least 80% of src/repro.  Needs pytest-cov (CI installs it; locally:
# pip install pytest-cov).
coverage:
	@PYTHONPATH=src $(PYTHON) -c "import pytest_cov" 2>/dev/null || { \
		echo "pytest-cov not found — install with: pip install pytest-cov"; \
		exit 1; }
	PYTHONPATH=src $(PYTHON) -m pytest -q --cov=repro \
		--cov-report=term-missing:skip-covered --cov-fail-under=80

# Static checks; ruff configuration lives in pyproject.toml.  The docs
# link check (every relative link in README.md + docs/*.md must resolve)
# rides along — a moved file breaks lint, not the docs.
lint:
	@command -v ruff >/dev/null 2>&1 || { \
		echo "ruff not found — install with: pip install ruff==$(RUFF_VERSION)"; \
		exit 1; }
	ruff check .
	$(PYTHON) tools/check_doc_links.py

# Microbenchmarks + short sweep; exits non-zero if the gated benchmark
# (test_small_platform_run) regresses >25% against BENCH_micro.json.
bench:
	$(PYTHON) -m benchmarks.harness --micro

# Refresh the checked-in perf baseline after an intentional change.
bench-baseline:
	$(PYTHON) -m benchmarks.harness --micro --update-baseline

# Campaign store gates: (1) resume — a 2-model x 2-seed campaign cold
# then resumed must re-execute zero simulations bit-identically; (2)
# cross-campaign dedup (store v2) — a table2-subset sharing a store root
# with a prior table1-subset must reuse every shared zero-fault cell
# through the dedup index (0 executed shared cells, byte-identical rows).
campaign-smoke:
	$(PYTHON) -m benchmarks.harness --campaign-smoke

# Closed-loop self-healing gate: a tiny hysteresis-governed run with a
# thermal storm must throttle, restore every throttle by the horizon,
# recover the killed node through the watchdog path exactly once, and
# repeat bit-identically.
dynamics-smoke:
	$(PYTHON) -m benchmarks.harness --dynamics-smoke

# Event-timer gate: ticked and event AIM timer modes must be
# bit-identical on a faulted FFW cell whose timeout machinery actually
# fires, event mode must make no more Python calls on that cell, an
# idle-heavy run must dispatch >= 3x fewer kernel events in event mode,
# and campaign cell keys must stay conserved.
timer-smoke:
	$(PYTHON) -m benchmarks.harness --timer-smoke

# Declarative-workload gate: a burst workload must run and repeat
# bit-identically, the builtin fork_join spec must reproduce the legacy
# application exactly, workload-free cell keys must replicate the
# pre-workload hash recipe, and the capacity lint must flag an arrival
# rate the platform cannot sustain.
workload-smoke:
	$(PYTHON) -m benchmarks.harness --workload-smoke

# Run every examples/*.py script; fail on any non-zero exit.
examples-smoke:
	$(PYTHON) -m benchmarks.harness --examples-smoke

# Sweep-scale analysis gate: `campaign report` must emit a
# self-contained page that re-renders byte-identically, and `campaign
# compare` must flag an injected regression with a non-zero exit.
report-smoke:
	$(PYTHON) -m benchmarks.harness --report-smoke

# Sweep-daemon gate: boot `campaign serve` on an ephemeral port, submit
# a 2x2 spec over HTTP (executes every cell), resubmit it and submit an
# overlapping tenant (both must dedup to zero executed sims), check
# /healthz, and shut down cleanly with the dedup index persisted.
serve-smoke:
	$(PYTHON) -m benchmarks.harness --serve-smoke

# Full-size bit-identity gate: the repository benchmark's simulator
# workloads (paper_cells, fault_storm) on seeds 1 and 2, one round each;
# every 8x16 cell's output hash must match perfbench/reference.json.
perfbench-check:
	$(PYTHON) tools/perfbench_check.py

.PHONY: test lint coverage bench bench-baseline campaign-smoke \
	dynamics-smoke timer-smoke workload-smoke examples-smoke \
	report-smoke serve-smoke perfbench-check
