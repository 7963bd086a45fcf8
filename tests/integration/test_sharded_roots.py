"""Sharded-root parity: the sharded group converges to the serial state.

Root sharding (K sibling subgroups, each root sequencing a deterministic
partition of the shared address space) is only allowed to exist because
the *final converged state* is indistinguishable from the one-root
baseline.  Every test here runs the same workload with ``roots=1`` and
with sharded roots and compares :func:`shared_state_hash` payloads —
across seeds, topologies, partition counts, partition seeds, and with
hierarchical multicast relays in the delivery path.
"""

from __future__ import annotations

import pytest

from repro.workloads.rootshard import RootShardConfig, run_rootshard

TOPOLOGIES = ("mesh_torus", "ring")


def _config(roots: int = 1, **overrides) -> RootShardConfig:
    """A small, fast shape: 8 nodes, 7 units (hot + 4 cold + 2 locks)."""
    return RootShardConfig(
        n_nodes=overrides.pop("n_nodes", 8),
        roots=roots,
        hot_rounds=overrides.pop("hot_rounds", 8),
        cold_units=overrides.pop("cold_units", 4),
        cold_rounds=overrides.pop("cold_rounds", 4),
        n_locks=overrides.pop("n_locks", 2),
        n_lockers=overrides.pop("n_lockers", 4),
        increments=overrides.pop("increments", 2),
        rebalance=overrides.pop("rebalance", False),
        **overrides,
    )


def _run(roots: int = 1, **overrides):
    return run_rootshard(_config(roots=roots, **overrides))


def _assert_parity(serial, sharded, roots: int):
    __tracebackhide__ = True
    assert sharded.extra["correct"], "sharded run converged to wrong values"
    assert serial.extra["correct"], "serial baseline converged to wrong values"
    assert sharded.extra["shared_hash"] == serial.extra["shared_hash"]
    assert sharded.extra["roots"] == roots
    assert len(sharded.extra["load_total"]) == roots


class TestSerialShardedParity:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("roots", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matrix(self, topology, roots, seed):
        serial = _run(roots=1, topology=topology, seed=seed)
        sharded = _run(roots=roots, topology=topology, seed=seed)
        _assert_parity(serial, sharded, roots)

    def test_roots_equal_units_still_agrees(self):
        """More partitions than needed: some roots own nothing."""
        serial = _run(roots=1)
        sharded = _run(roots=7)
        _assert_parity(serial, sharded, 7)

    @pytest.mark.parametrize("partition_seed", [1, 7])
    def test_partition_seed_changes_layout_not_state(self, partition_seed):
        """A different partition seed shuffles unit ownership but the
        converged state is identical."""
        base = _run(roots=3)
        reseeded = _run(roots=3, partition_seed=partition_seed)
        assert reseeded.extra["shared_hash"] == base.extra["shared_hash"]

    def test_load_spreads_across_roots(self):
        """No single root sequences the whole group once sharded (the
        partition hash spreads 7 units over 3 roots for this seed)."""
        sharded = _run(roots=3)
        loads = sharded.extra["load_total"]
        assert sum(loads) > 0
        assert max(loads) < sum(loads)


class TestRelayParity:
    @pytest.mark.parametrize("fanout", [2, 3])
    def test_relay_tree_delivery_agrees_with_direct(self, fanout):
        """Hierarchical multicast forwards applies through member relays
        yet converges to the byte-identical direct-delivery state."""
        direct = _run(roots=2)
        relayed = _run(roots=2, fanout=fanout)
        assert relayed.extra["shared_hash"] == direct.extra["shared_hash"]
        assert relayed.extra["correct"]
        assert relayed.extra["relayed_applies"] > 0
        assert direct.extra["relayed_applies"] == 0

    def test_relay_serial_single_root(self):
        """Fanout applies to the one-root shape too (a plain relay tree
        under the single sequencer)."""
        serial = _run(roots=1)
        relayed = _run(roots=1, fanout=2)
        assert relayed.extra["shared_hash"] == serial.extra["shared_hash"]
        assert relayed.extra["relayed_applies"] > 0


class TestCrossRootAtomics:
    def test_locked_sections_with_remote_partitions(self):
        """Lockers whose tallies live on different roots still produce
        unbroken RMW chains (verified inside run_rootshard) and exact
        final tallies — each lock shares a root with the data it guards."""
        sharded = _run(roots=3, n_locks=3, n_lockers=6, increments=3)
        assert sharded.extra["correct"]

    @pytest.mark.parametrize("system", ["gwc", "gwc_optimistic"])
    def test_parity_by_system(self, system):
        serial = _run(roots=1, system=system)
        sharded = _run(roots=2, system=system)
        _assert_parity(serial, sharded, 2)
