# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test chaos-smoke failover-smoke campaign-smoke shard-smoke sharded-root-smoke goldens verify-goldens bench bench-full bench-json perf-smoke bench-selftest profile examples figures all clean

install:
	$(PY) setup.py develop

test:
	PYTHONPATH=src $(PY) -m pytest tests/
	PYTHONPATH=src $(PY) -m repro chaos --smoke
	PYTHONPATH=src $(PY) -m repro chaos --scenario crash_root --seeds 3
	PYTHONPATH=src $(PY) -m repro campaign --smoke
	PYTHONPATH=src $(PY) -m repro sharded-root-smoke

# Deterministic fault-injection mini-matrix (< 30 s); part of `make test`.
chaos-smoke:
	PYTHONPATH=src $(PY) -m repro chaos --smoke

# Seeded root-kill matrix (GWC family x 3 seeds, byte-identical per
# seed); part of `make test`.  Kills each group root mid-critical-
# section and requires election + reconstruction to converge.
failover-smoke:
	PYTHONPATH=src $(PY) -m repro chaos --scenario crash_root --seeds 3

# Randomized fault-campaign smoke: seeded generated plans across the
# chaos profiles, live-checked by the invariant oracles (< 10 s);
# part of `make test`.
campaign-smoke:
	PYTHONPATH=src $(PY) -m repro campaign --smoke

# Shard-parity smoke: quick figure2/figure8 points under the sharded
# kernel must hash bit-identical to serial runs.
shard-smoke:
	PYTHONPATH=src $(PY) -m repro shard-smoke
	PYTHONPATH=src $(PY) -m repro shard-smoke --shards 4

# Sharded-root parity smoke: serial vs root-sharded state hashes across
# partition counts, relay fanouts, and an online re-partition, on two
# (seed, topology) triples; part of `make test`.
sharded-root-smoke:
	PYTHONPATH=src $(PY) -m repro sharded-root-smoke

# Continuous-verify drift gate: regenerate every golden surface and
# compare bit-for-bit against the committed goldens/ tree.  Exit 0
# clean, 1 drift (with per-file / per-field report), 2 usage.
verify-goldens:
	PYTHONPATH=src $(PY) -m repro verify-goldens

# Rewrite the committed goldens after a reviewed semantic change.  The
# REPRO_REGEN_GOLDENS=1 kill-switch is mandatory; without it the target
# refuses (exit 2).  Commit the printed diff summary with the PR.
goldens:
	REPRO_REGEN_GOLDENS=1 PYTHONPATH=src $(PY) -m repro update-goldens

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL=1 $(PY) -m pytest benchmarks/ --benchmark-only -s

# Machine-readable perf snapshot (events/sec, messages/sec, quick sweep
# wall-clock, speedup vs the seed baseline) -> BENCH_kernel.json.
bench-json:
	PYTHONPATH=src $(PY) benchmarks/test_perf_kernel.py

# Fail if the quick Figure 8 sweep regressed >25% vs BENCH_kernel.json.
perf-smoke:
	PYTHONPATH=src $(PY) benchmarks/test_perf_kernel.py --smoke

# Self-test of the layered benchmark (BENCHMARK.json's ruler): drives
# the contract command with --trace 1 on every workload at quick sizes,
# so a change that breaks the ruler fails here first.
bench-selftest:
	PYTHONPATH=src $(PY) -m pytest benchmarks/layered/test_layered.py

# cProfile the quick Figure 2 + Figure 8 sweeps and print the top 20
# hot spots by cumulative time (see docs/REPRODUCING.md, Performance).
profile:
	PYTHONPATH=src $(PY) -c "\
	import cProfile, pstats; \
	from repro.experiments.figure2 import run_figure2; \
	from repro.experiments.figure8 import run_figure8; \
	p = cProfile.Profile(); \
	p.enable(); run_figure2(); run_figure8(); p.disable(); \
	pstats.Stats(p).sort_stats('cumulative').print_stats(20)"

examples:
	for script in examples/*.py; do echo "== $$script"; $(PY) $$script; done

figures:
	$(PY) -m repro figure1
	$(PY) -m repro figure2 --chart
	$(PY) -m repro figure8 --chart
	$(PY) -m repro figure7
	$(PY) -m repro grouping

all: test bench

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
