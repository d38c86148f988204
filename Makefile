PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Constraint inference iterates hash-seeded containers, so *cross-
# process-tree* constraint counts can drift by ~1 between differently
# seeded interpreters (see CHANGES.md / docs/ARCHITECTURE.md).  Pinning
# the seed makes test and benchmark counts reproducible run to run;
# within one process tree (fork workers) determinism never depended on
# this.
export PYTHONHASHSEED := 0

.PHONY: test test-fast lint engine-gate bench perfbench chaos fleet-bench obs-bench trace-demo docs-check quickstart pipeline fleet serve all

all: test docs-check

# Tier-1 verification: dead-code/mutable-default lint, then the full
# unit/integration/benchmark suite.
test: lint
	$(PYTHON) -m pytest -x -q

# Inner-loop verification: everything except the benchmark tier
# (benchmarks/ carries the `bench` marker via its conftest).
test-fast: lint
	$(PYTHON) -m pytest -x -q -m "not bench"

# AST-based dead-code + mutable-default checks (no third-party install
# needed); add LINT_EXTERNAL=1 to also run ruff/pyflakes when installed.
LINT_EXTERNAL ?=
lint:
	$(PYTHON) tools/lint.py $(if $(LINT_EXTERNAL),--external)

# The engine parity contract: codegen == tree on every observable
# channel (hand-picked programs, the eight systems, seeded generated
# programs and warm-boot resumes), plus the codegen unit tier.
engine-gate:
	$(PYTHON) -m pytest -q tests/runtime/test_engine_parity.py tests/runtime/test_engine_fuzz.py tests/runtime/test_codegen_engine.py tests/runtime/test_boot_snapshots.py

# Benchmark suite only, with the regenerated tables printed.
bench:
	$(PYTHON) -m pytest benchmarks -q -s

# The repository benchmark (perfbench/README.md): one workload of
# audit, audit-process, fleet or serve, end-to-end metrics only; the
# last stdout line is the JSON result.
WORKLOAD ?= audit
perfbench:
	$(PYTHON) perfbench/run.py --workload $(WORKLOAD) --seed 1 --seconds 30 --trace 0

# Chaos tier: every recovery path proven end-to-end (kill/resume
# checkpoint parity, retry/quarantine, serve load-shedding and circuit
# breakers), plus the recovery-overhead gate (a recovered fleet run
# costs <=15% over its fault-free twin; fault catalog and gate method
# in docs/ROBUSTNESS.md).
chaos:
	$(PYTHON) -m pytest tests/chaos -x -q

# Fleet-scale config-checking benchmark only: configs/sec, executor
# speedup over serial, compiled-checker cache hit rate.
fleet-bench:
	$(PYTHON) -m pytest benchmarks/test_fleet_throughput.py -q -s

# Telemetry overhead benchmark only: enabled-vs-disabled warm launch
# throughput (<=5% budget) plus verdict/footer parity.
obs-bench:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q -s

# Run one traced campaign and print its NDJSON spans on stdout (span
# taxonomy in docs/OBSERVABILITY.md).
trace-demo:
	$(PYTHON) examples/trace_demo.py

# Fails if README code blocks drift from working imports.
docs-check:
	$(PYTHON) tools/docs_check.py

quickstart:
	$(PYTHON) examples/quickstart.py

# Always-on validation service on a fixed local port; submit configs
# with `python -m repro.reporting.cli submit <system> <file> --port ...`.
SERVE_PORT ?= 7423
serve:
	$(PYTHON) -m repro.reporting.cli serve --port $(SERVE_PORT)

# The batched multi-system campaign sweep (serial by default;
# EXECUTOR=thread|process to fan out).
EXECUTOR ?= serial
pipeline:
	$(PYTHON) -m repro.reporting.cli pipeline --executor $(EXECUTOR)

# Fleet-scale synthetic-config validation through the CLI.
FLEET_SIZE ?= 200
fleet:
	$(PYTHON) -m repro.reporting.cli fleet --executor $(EXECUTOR) \
		--size $(FLEET_SIZE) --sample 20
