# Canonical project commands.

PYTHON ?= python

.PHONY: install test bench bench-tables bench-pipeline bench-fuzz bench-cert bench-serve bench-e2e fuzz examples lint-smoke all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The paper-style decision tables (EXPERIMENTS.md material).
bench-tables:
	$(PYTHON) -m pytest benchmarks/ -s --benchmark-disable

# Full pipeline/POR benchmark with perf gates -> BENCH_pipeline.json.
bench-pipeline:
	$(PYTHON) benchmarks/bench_pipeline.py

# Fuzz throughput benchmark with quality gates -> BENCH_fuzz.json.
bench-fuzz:
	$(PYTHON) benchmarks/bench_fuzz.py

# Fused-certifier identity + throughput gates -> BENCH_cert.json.
bench-cert:
	$(PYTHON) benchmarks/bench_cert.py

# Serve front-line loadtest with its full-mode gates -> BENCH_serve.json.
bench-serve:
	$(PYTHON) -m repro loadtest --out BENCH_serve.json --clients 16 \
		--max-queue 16 --overload-clients 32 --overload-seconds 5

# The repo benchmark (BENCHMARK.json): every workload, every metric.
bench-e2e:
	python3 benchmarks/e2e/run.py

# A real differential fuzzing campaign (docs/fuzzing.md).
fuzz:
	$(PYTHON) -m repro fuzz --seeds 200 --jobs 4

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; \
		$(PYTHON) $$f > /dev/null || exit 1; \
	done
	@echo "all examples ran cleanly"

# Byte-compile everything as a cheap syntax/import smoke test.
lint-smoke:
	$(PYTHON) -m compileall -q src tests benchmarks examples

all: install test bench examples
