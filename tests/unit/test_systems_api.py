"""Unit tests for the consistency-system API surface used by workloads."""

from __future__ import annotations

import pytest

from repro.consistency.base import make_system
from repro.core.machine import DSMMachine
from repro.errors import LockStateError, WorkloadError
from repro.workloads.base import build_machine, finish


def build(system="gwc"):
    machine = DSMMachine(n_nodes=4)
    machine.create_group("g", root=0)
    machine.declare_variable("g", "x", 10)
    machine.declare_variable("g", "m", 0, mutex_lock="L")
    machine.declare_lock("g", "L", protects=("m",))
    return machine, make_system(system, machine)


class TestGwcSystemApi:
    def test_read_is_local_and_immediate(self):
        machine, system = build()
        got = []

        def proc(node):
            value = yield from system.read(node, "x")
            got.append((node.sim.now, value))

        machine.spawn(proc(machine.nodes[2]), name="p")
        machine.run()
        assert got == [(0.0, 10)]

    def test_write_propagates_to_all_members(self):
        machine, system = build()

        def proc(node):
            yield from system.write(node, "x", 99)

        machine.spawn(proc(machine.nodes[1]), name="p")
        machine.run()
        assert all(n.store.read("x") == 99 for n in machine.nodes)

    def test_wait_value_wakes_on_remote_write(self):
        machine, system = build()
        got = []

        def writer(node):
            yield 3e-6
            yield from system.write(node, "x", 5)

        def waiter(node):
            value = yield from system.wait_value(node, "x", lambda v: v == 5)
            got.append((node.sim.now, value))

        machine.spawn(writer(machine.nodes[1]), name="w")
        machine.spawn(waiter(machine.nodes[3]), name="r")
        machine.run()
        assert got[0][1] == 5
        assert got[0][0] > 3e-6

    def test_release_without_holding_rejected(self):
        machine, system = build()

        def proc(node):
            yield from system.release(node, "L")

        machine.spawn(proc(machine.nodes[1]), name="p")
        with pytest.raises(LockStateError):
            machine.run()

    def test_acquire_release_cycle(self):
        machine, system = build()
        held = []

        def proc(node):
            yield from system.acquire(node, "L")
            held.append(node.id)
            yield from system.release(node, "L")

        machine.spawn(proc(machine.nodes[3]), name="p")
        machine.run()
        assert held == [3]


class TestWorkloadBase:
    def test_build_machine_validates_node_count(self):
        with pytest.raises(WorkloadError):
            build_machine("gwc", 0)

    def test_build_machine_attaches_checker_by_default(self):
        machine, system = build_machine("gwc", 2)
        assert machine.checker is not None

    def test_build_machine_without_checker(self):
        machine, system = build_machine("gwc", 2, check=False)
        assert machine.checker is None

    def test_finish_packages_result(self):
        machine, system = build_machine("gwc", 2)

        def proc():
            yield 1e-6

        machine.spawn(proc(), name="p")
        result = finish(machine, system, tag="value")
        assert result.system == "gwc"
        assert result.n_nodes == 2
        assert result.elapsed == pytest.approx(1e-6)
        assert result.extra["tag"] == "value"

    def test_system_kwargs_forwarded(self):
        machine, system = build_machine("gwc_optimistic", 2, threshold=0.9)
        assert system.config.threshold == 0.9


class TestScales:
    def test_quick_sizes_subset_of_full(self):
        from repro.experiments import figure2, figure8

        for figure in (figure2, figure8):
            assert set(figure.QUICK) == set(figure.FULL)
            assert set(figure.QUICK["sizes"]) <= set(figure.FULL["sizes"])


class TestCliGrouping:
    def test_grouping_command(self, capsys):
        from repro.cli import main

        assert main(["grouping", "--sizes", "8"]) == 0
        out = capsys.readouterr().out
        assert "global root" in out


class TestLazyPackageExports:
    """``repro.workloads`` / ``repro.experiments`` resolve their public
    names on first access, so a worker importing one module does not
    compile its siblings."""

    @pytest.mark.parametrize("package", ["repro.workloads", "repro.experiments"])
    def test_every_public_name_resolves_to_its_submodule(self, package):
        import importlib

        module = importlib.import_module(package)
        assert module.__all__ == sorted(module._EXPORTS)
        for name, submodule in module._EXPORTS.items():
            owner = importlib.import_module(f"{package}.{submodule}")
            assert getattr(module, name) is getattr(owner, name)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            module.nope

    def test_importing_one_workload_leaves_its_siblings_unloaded(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.workloads.pipeline, repro.experiments.figure2\n"
            "from repro.workloads import run_pipeline, PipelineConfig\n"
            "from repro.experiments import run_figure2\n"
            "loaded = [m for m in ('stencil', 'lock_bench', 'scenarios', 'synthetic')\n"
            "          if 'repro.workloads.' + m in sys.modules]\n"
            "loaded += [m for m in ('grouping', 'figure1', 'figure8')\n"
            "           if 'repro.experiments.' + m in sys.modules]\n"
            "print(loaded)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"
