#!/usr/bin/env python3
"""Mutation table: which test tier catches which seeded ordering bug.

Copies the tree to a temp dir and, for each mutant, applies one exact
string replacement (the anchor must match exactly once, so a rotted
mutant aborts the run instead of passing silently), runs three tiers
with every ``REPRO_*`` variable scrubbed, and restores the file:

  G  ``repro verify-goldens`` (every golden surface is a run)
  M  ``repro reproduce chaos failover campaign sharded_root``
  U  ``pytest tests`` minus the file that re-runs G and the one that
     checks this table's anchors (it would fail on every applied mutant)

One row per mutant: ``caught`` / ``passed`` per tier.  Exit 1 if a mutant
survives every tier.  Under a minute per mutant, so this is a measuring stick
to run by hand (``make mutation-table``), not part of tier-1 or CI.
DESIGN.md section 6 records the run that retired the sharded kernel.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: A mutant that hangs a tier counts as caught by it.
TIER_TIMEOUT_S = 600
#: Kept out of U: the first re-runs G; the second asserts every anchor
#: still matches, which inside the mutated tree no applied mutant's does.
U_IGNORED_TESTS = (
    "tests/integration/test_goldens_verify.py",
    "tests/unit/test_mutation_table.py",
)
SMOKE_EXPERIMENTS = ("chaos", "failover", "campaign", "sharded_root")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/repro
    old: str  # exact anchor, must match once
    new: str


HIDDEN_ROOT_READ = """\
        local_now = store.read(lock)
        machine = self.system.machine
        engine = machine.root_engine(machine.group_of_lock(lock).name)
        root_holder = engine.manager(lock).holder
        if root_holder is not None and root_holder != node.id:
            local_now = grant_value(root_holder)
"""

_KEEP = "            last_arrival = self._last_arrival\n"
_CLAMP = (
    "            previous = last_arrival.get(key)\n"
    "            if previous is not None and arrival < previous:\n"
    "                arrival = previous\n"
)
_RELAY = (
    "        if iface._relay_mode:\n"
    "            iface._relay_apply(packet)\n"
)
_GATE = (
    "        if (\n"
    "            iface._next_seq.get(group) != seq\n"
    "            or iface._epoch[group] != epoch\n"
    "            or iface._reorder[group]\n"
    "            or iface._suspended\n"
    "        ):\n"
    "            iface._receive(packet)\n"
    "            continue\n"
)

MUTANTS: list[Mutant] = [
    Mutant("fifo_clamp_dropped", "net/network.py", _KEEP + _CLAMP, _KEEP),
    Mutant("lifo_ties_push_fn", "sim/event.py",
           "(time, seq, fn))", "(time, -seq, fn))"),
    Mutant("lifo_lock_queue", "locks/gwc_lock.py",
           "self.queue.pop(0))\n            return [",
           "self.queue.pop())\n            return ["),
    Mutant("fanout_targets_reversed", "net/network.py",
           "for index, dst in enumerate(targets):",
           "for index, dst in reversed(list(enumerate(targets))):"),
    Mutant("member_epoch_fence_skipped", "memory/interface.py",
           "if packet.epoch < current_epoch:", "if False:"),
    Mutant("root_epoch_fence_skipped", "consistency/gwc.py",
           "if request.epoch != self.epoch:\n            # Issued into",
           "if False:\n            # Issued into"),
    Mutant("root_keeps_nonholder_writes", "consistency/gwc.py",
           "if not manager.holds(origin):", "if False:"),
    Mutant("echo_filter_never_drops", "memory/interface.py",
           "            flt.enabled\n", "            False\n"),
    Mutant("apply_accepts_future_seq", "memory/interface.py",
           "if packet.seq == expected and not self._reorder[group]:",
           "if packet.seq >= expected and not self._reorder[group]:"),
    Mutant("suspended_queue_lifo", "memory/interface.py",
           "self._suspended_queue.popleft()", "self._suspended_queue.pop()"),
    Mutant("signal_fire_reversed", "sim/waiters.py",
           "for callback in waiters:", "for callback in reversed(waiters):"),
    Mutant("wake_filter_ignores_pending_slot", "sim/waiters.py",
           "sim._queue.push_reserved(now, self.slot_seq, process._resume_none)",
           "process._resume_later(payload)"),
    Mutant("rollback_restore_skipped", "locks/optimistic.py",
           "        restore_from_rollback(node, section, saved)\n", "        pass\n"),
    Mutant("hidden_root_lock_read", "locks/optimistic.py",
           "        local_now = store.read(lock)\n", HIDDEN_ROOT_READ),
    # Cohort delivery: one mutant per ordering decision it takes.
    Mutant("cohort_iterated_in_reverse", "memory/interface.py",
           "for iface in cohort[0]:", "for iface in reversed(cohort[0]):"),
    Mutant("fire_cohort_in_reverse", "net/message.py",
           "for dst, handler in receivers:",
           "for dst, handler in reversed(receivers):"),
    Mutant("clamped_stays_in_hop_cohort", "net/network.py",
           "        if regroup:\n", "        if False:\n"),
    Mutant("regroup_reverses_target_order", "net/network.py",
           "zip(plan.keys, plan.receivers)",
           "zip(plan.keys[::-1], plan.receivers[::-1])"),
    Mutant("cohort_gate_accepts_future_seq", "memory/interface.py",
           "iface._next_seq.get(group) != seq",
           "iface._next_seq.get(group, seq + 1) > seq"),
    Mutant("cohort_echo_filter_never_drops", "memory/interface.py",
           "or (echo and origin == iface.node)", "or False"),
    Mutant("relay_forward_after_gate", "memory/interface.py",
           _RELAY + _GATE, _GATE + _RELAY),
    # The entry-consistency comparator: one mutant per protocol duty.
    Mutant("inval_ack_skipped", "consistency/entry.py",
           'self._send(node_id, owner, "ec.inval_ack", payload=lock)', "pass"),
    Mutant("grant_without_data", "consistency/entry.py",
           "data = {var: owner_store.read(var) for var in decl.protects}",
           "data = {}"),
    Mutant("exclusive_grant_keeps_copyset", "consistency/entry.py",
           "            state.copyset = {requester}\n        else:",
           "            state.copyset.add(requester)\n        else:"),
    Mutant("home_not_migrated_on_write", "consistency/entry.py",
           "        self._var_home[var] = node.id\n", "        pass\n"),
    Mutant("fetch_replies_unserialized", "consistency/entry.py",
           "self._home_free_at.get(node_id, 0.0)", "0.0"),
    Mutant("stale_guess_never_forwarded", "consistency/entry.py",
           "if state.owner != node_id:\n            # Wrong guess",
           "if state.owner != node_id and self.owner_oracle:\n"
           "            # Wrong guess"),
    # The epoch-fenced ownership handoff: root failover (dead source)
    # and online re-partitioning (live source), one mutant per duty.
    Mutant("takeover_before_all_replies", "faults/failover.py",
           "if waiting or not election.replies:", "if not election.replies:"),
    Mutant("adopt_shortest_prefix", "faults/failover.py",
           "key=lambda r: (-r.next_seq, r.member)",
           "key=lambda r: (r.next_seq, r.member)"),
    Mutant("claim_tiebreak_reversed", "faults/failover.py",
           "claims.sort(key=lambda claim: (-claim[0], claim[1]))",
           "claims.sort(key=lambda claim: (-claim[0], claim[1]), reverse=True)"),
    Mutant("lease_config_not_inherited", "faults/failover.py",
           "if old_engine is not None and old_engine._lock_recovery:",
           "if False:"),
    Mutant("takeover_var_refresh_skipped", "faults/failover.py",
           "for var, decl in sorted(group.variables.items())",
           "for var, decl in ()"),
    Mutant("successor_skips_adopt_epoch", "faults/failover.py",
           "iface._adopt_epoch(election.group, election.epoch, next_seq)",
           "pass"),
    Mutant("fence_records_migrated_without_bump", "memory/repartition.py",
           "src_engine.epoch + 1, src_engine.sequenced,",
           "src_engine.epoch, src_engine.epoch_start_seq,"),
    Mutant("target_lock_state_not_adopted", "memory/repartition.py",
           "manager.adopt_state(state)", "pass"),
    Mutant("fence_heartbeat_skipped", "memory/repartition.py",
           "src_engine.emit_heartbeat()", "pass"),
    Mutant("target_refresh_skipped", "memory/repartition.py",
           "            tgt_engine.hand_off(\n", "            (\n"),
    Mutant("group_caches_not_forgotten", "memory/repartition.py",
           "machine.nodes[member].iface.forget_group_of(moved_tuple)", "pass"),
    Mutant("old_epoch_migrated_write_sequenced", "consistency/gwc.py",
           "if var in self.migrated:\n            # A current-epoch",
           "if False:\n            # A current-epoch"),
    Mutant("confirm_release_bypassed", "consistency/gwc.py",
           "        if self.machine.migration_fencing:\n"
           "            yield from self._confirm_release(node, lock)\n",
           ""),
    Mutant("rebuilt_stamp_dropped", "faults/failover.py",
           "rebuilt=True", "rebuilt=False"),
    # The partitioned-group object: one mutant per duty it owns.
    Mutant("home_ignores_override", "memory/sharing_group.py",
           "return self.parts[self.pmap.partition_of(name)]",
           "return self.parts[self.pmap.hash_partition(self.pmap.unit_of(name))]"),
    Mutant("move_leaves_variables_on_source", "memory/sharing_group.py",
           "                dest.variables[name] = replace(\n"
           "                    source.variables.pop(name), group=dest.name\n"
           "                )\n",
           "                pass\n"),
]


_REPRO = [sys.executable, "-m", "repro"]
#: Tier letter -> command, run with the mutated tree as working directory.
TIERS: dict[str, list[str]] = {
    "G": [*_REPRO, "verify-goldens"],
    "M": [*_REPRO, "reproduce", *SMOKE_EXPERIMENTS],
    "U": [
        sys.executable, "-m", "pytest", "tests", "-x", "-q",
        "-p", "no:cacheprovider", "--hypothesis-seed=0",
        *(f"--ignore={path}" for path in U_IGNORED_TESTS),
    ],
}


def mutate(tree: pathlib.Path, mutant: Mutant) -> tuple[pathlib.Path, str, str]:
    """The mutant's (file in ``tree``, original text, mutated text)."""
    target = tree / "src" / "repro" / mutant.path
    text = target.read_text()
    matches = text.count(mutant.old)
    if matches != 1:
        sys.exit(
            f"mutation-table: anchor of {mutant.name!r} matches {matches} "
            f"time(s) in {mutant.path}, want exactly 1 -- the mutant has "
            "rotted; fix its anchor"
        )
    return target, text, text.replace(mutant.old, mutant.new)


def tier_catches(
    command: list[str], tree: pathlib.Path, env: dict[str, str],
    log: pathlib.Path | None,
) -> bool:
    """Run one tier; a timeout kills its whole process group.

    The tier runs in its own session, so a sweep's forked workers share
    its process group and die with it instead of outliving the table.
    """
    proc = subprocess.Popen(
        command, cwd=tree, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        output, _ = proc.communicate(timeout=TIER_TIMEOUT_S)
        caught = proc.returncode != 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        output, caught = f"{output}\nTIMEOUT after {TIER_TIMEOUT_S} s", True
    if log is not None:
        log.write_text(output)
    return caught


def run_table(mutants: list[Mutant], logs: pathlib.Path | None = None) -> int:
    """Print one row per mutant; 1 if one survived every tier, else 0."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if logs is not None:
        logs.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="mutation-table-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(
            REPO_ROOT, tree,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ),
        )
        env["PYTHONPATH"] = str(tree / "src")
        for mutant in mutants:  # every anchor is checked before any run
            mutate(tree, mutant)
        width = max(len(mutant.name) for mutant in mutants) + 2
        print(f"{'mutant':<{width}}" + "".join(f"{t:<8}" for t in TIERS) + "verdict")
        survivors = 0
        for mutant in mutants:
            target, original, mutated = mutate(tree, mutant)
            target.write_text(mutated)
            try:
                caught = {
                    tier: tier_catches(
                        command, tree, env,
                        logs / f"{mutant.name}.{tier}.log" if logs else None,
                    )
                    for tier, command in TIERS.items()
                }
            finally:
                target.write_text(original)
            killed = any(caught.values())
            survivors += not killed
            cells = "".join(
                f"{'caught' if hit else 'passed':<8}" for hit in caught.values()
            )
            verdict = "killed" if killed else "SURVIVED"
            print(f"{mutant.name:<{width}}{cells}{verdict}", flush=True)
    if survivors:
        print(f"mutation-table: {survivors} mutant(s) survived every tier")
    return 1 if survivors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--only", default="", metavar="A,B", help="comma-separated mutant names"
    )
    parser.add_argument(
        "--logs", default="", metavar="DIR", help="keep each tier's output here"
    )
    args = parser.parse_args(argv)
    names = [name for name in args.only.split(",") if name]
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    return run_table(chosen, pathlib.Path(args.logs) if args.logs else None)


if __name__ == "__main__":
    sys.exit(main())
