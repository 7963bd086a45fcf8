"""Workloads: the programs the paper's evaluation runs.

* :mod:`repro.workloads.contention` — the Figure 1 three-CPU locking
  comparison.
* :mod:`repro.workloads.task_queue` — the Figure 2 task-management
  application (one producer, a lock-guarded shared queue).
* :mod:`repro.workloads.pipeline` — the Figure 8 linear pipeline used to
  evaluate optimistic locking.
* :mod:`repro.workloads.counter` — a shared-counter kernel used by the
  lock-protocol ablations.
* :mod:`repro.workloads.scenarios` — the Figure 7 rollback interaction
  and the echo-blocking corruption scenario.
* :mod:`repro.workloads.synthetic` — randomized contention generator for
  stress and property tests.
"""

from importlib import import_module

#: Public name -> defining submodule.  Resolved on first access (PEP 562
#: module ``__getattr__``), so importing one workload — what a sweep or
#: benchmark worker does — does not compile the other eight.
_EXPORTS = {
    "ContentionConfig": "contention",
    "CounterConfig": "counter",
    "DoubleWriteConfig": "scenarios",
    "Figure7Config": "scenarios",
    "LockBenchConfig": "lock_bench",
    "PipelineConfig": "pipeline",
    "StencilConfig": "stencil",
    "SyntheticConfig": "synthetic",
    "TaskQueueConfig": "task_queue",
    "WorkloadResult": "base",
    "run_contention": "contention",
    "run_counter": "counter",
    "run_double_write": "scenarios",
    "run_figure7": "scenarios",
    "run_lock_bench": "lock_bench",
    "run_pipeline": "pipeline",
    "run_stencil": "stencil",
    "run_synthetic": "synthetic",
    "run_task_queue": "task_queue",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
