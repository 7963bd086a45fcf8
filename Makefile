# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test smoke goldens verify-goldens bench-selftest bench-pairs mutation-table profile examples figures all clean

install:
	$(PY) setup.py develop

test:
	PYTHONPATH=src $(PY) -m pytest tests/
	$(MAKE) smoke

# The fault and parity smokes, each the same run its golden surface
# snapshots (< 1 s in all): chaos mini-matrix, root-kill failover matrix,
# randomized campaign, sharded-root state-hash parity.
# Exit 1 names the experiment whose expectation failed.
smoke:
	PYTHONPATH=src $(PY) -m repro reproduce chaos failover campaign sharded_root

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

# Self-test of the layered benchmark (BENCHMARK.json's ruler): drives
# the contract command with --trace 1 on every workload at quick sizes,
# so a change that breaks the ruler fails here first.
bench-selftest:
	PYTHONPATH=src $(PY) -m pytest benchmarks/layered/test_layered.py

# Alternating parent/change pairs of the BENCHMARK.json contract command
# on one workload, several, or all: per-metric medians, quartiles and
# pairs won; EXACT=1 first compares the repeatable counts of one
# --trace 1 pass per side.  Minutes per workload, so a developer tool,
# not CI (docs/REPRODUCING.md section 6).
#   make bench-pairs BASE=<rev> WORKLOAD=all|"<name> ..." [PAIRS=10] [EXACT=1]
PAIRS ?= 10
bench-pairs:
	$(PY) tools/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) $(if $(EXACT),--exact)

# Which test tier (goldens, smoke, unit) catches which seeded ordering
# bug: one row per mutant, exit 1 if one survives every tier.  Under
# a minute per mutant, so run by hand, not in `make test` or CI.
mutation-table:
	$(PY) tools/mutation_table.py

# cProfile the quick Figure 2 + Figure 8 sweeps and print the top 20
# hot spots by cumulative time (see docs/REPRODUCING.md, Performance).
# Under a profiler the sweeps run serially in this process, so the
# profile sees the simulations, not a pool waiting for its workers.
profile:
	PYTHONPATH=src $(PY) -c "\
	import cProfile, pstats; \
	from repro.experiments.figure2 import run_figure2; \
	from repro.experiments.figure8 import run_figure8; \
	p = cProfile.Profile(); \
	p.enable(); run_figure2(); run_figure8(); p.disable(); \
	pstats.Stats(p).sort_stats('cumulative').print_stats(20)"

# Every example script, stopping at the first that fails (~5 s).
examples:
	for script in examples/*.py; do echo "== $$script"; PYTHONPATH=src $(PY) $$script || exit 1; done

figures:
	PYTHONPATH=src $(PY) -m repro reproduce

all: test verify-goldens

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
