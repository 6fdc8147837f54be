"""Deterministic discrete-event simulation kernel.

Every other subsystem in :mod:`repro` runs on top of this kernel: hosts,
networks, PLCs, malware, and command-and-control servers all schedule
callbacks on a shared :class:`Kernel` and record what happened in its
:class:`TraceLog`.  The kernel is fully deterministic: given the same seed
and the same schedule of events, two runs produce identical traces, which
is what lets the benchmark harness regenerate the paper's figures as
stable event sequences.
"""

from repro.sim.checkpoint import CHECKPOINT_VERSION, state_digest
from repro.sim.clock import SimClock, SIM_EPOCH
from repro.sim.errors import (
    CheckpointDigestError,
    CheckpointError,
    CheckpointVersionError,
    PoisonReplicaError,
    ReplicaTimeoutError,
    SimulationError,
    ScheduleInPastError,
    SupervisionError,
)
from repro.sim.events import Event, EventQueue, Kernel, PeriodicTask
from repro.sim.faults import FaultInjector, FaultKind, FaultWindow, lan_scope
from repro.sim.retry import RetryPolicy, RetryTask, deterministic_backoff
from repro.sim.rng import DeterministicRandom
from repro.sim.sweep import (
    SweepConfig,
    SweepResult,
    adaptive_chunk_size,
    run_sweep,
    should_fallback,
)
from repro.sim.trace import TraceLog, TraceRecord
from repro.sim.workerpool import (
    ChaosPlan,
    SupervisorConfig,
    WorkerPool,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointDigestError",
    "CheckpointError",
    "CheckpointVersionError",
    "SIM_EPOCH",
    "DeterministicRandom",
    "Event",
    "EventQueue",
    "FaultInjector",
    "FaultKind",
    "FaultWindow",
    "ChaosPlan",
    "Kernel",
    "PeriodicTask",
    "PoisonReplicaError",
    "ReplicaTimeoutError",
    "RetryPolicy",
    "RetryTask",
    "ScheduleInPastError",
    "SimClock",
    "SimulationError",
    "SupervisionError",
    "SupervisorConfig",
    "SweepConfig",
    "SweepResult",
    "TraceLog",
    "TraceRecord",
    "WorkerPool",
    "adaptive_chunk_size",
    "deterministic_backoff",
    "lan_scope",
    "run_sweep",
    "should_fallback",
    "state_digest",
]
