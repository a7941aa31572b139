"""The MPC (Massively Parallel Communication) simulator substrate.

A query runs on one :class:`Cluster`: its steps follow one another on
the same servers (:meth:`Cluster.step`) or run side by side on pools,
contiguous server ranges whose k-th rounds are one round
(:meth:`Cluster.side_by_side`), so the query's cost is the cluster's own
:class:`RunStats`. The round lifecycle is exception-safe (a failed round leaves the cluster
usable — see :mod:`repro.mpc.cluster`), the ``load_cap`` is enforced
before delivery, and the whole subsystem can self-audit its conservation
invariants via ``Cluster(p, audit=True)`` or the
:func:`repro.mpc.audit.audited` context manager. Deterministic fault
injection and recovery (crashes, stragglers, channel faults) is
available via ``Cluster(p, faults=plan)`` or
:func:`repro.mpc.faults.faulty`.
"""

from repro.mpc.audit import (
    AuditReport,
    AuditViolation,
    ClusterAuditor,
    audited,
)
from repro.mpc.cluster import Cluster, RoundContext
from repro.mpc.faults import (
    ChannelFault,
    CrashFault,
    FaultController,
    FaultPlan,
    FaultStats,
    RecoveryPolicy,
    StragglerFault,
    faulty,
)
from repro.mpc.hashing import HashFamily, HashFunction, hash_int_tuple, splitmix64
from repro.mpc.server import Server
from repro.mpc.stats import RoundStats, RunStats
from repro.mpc.topology import Grid
from repro.mpc.trace import busiest_server, load_histogram, round_table, trace

__all__ = [
    "AuditReport",
    "AuditViolation",
    "ChannelFault",
    "Cluster",
    "ClusterAuditor",
    "CrashFault",
    "FaultController",
    "FaultPlan",
    "FaultStats",
    "Grid",
    "HashFamily",
    "HashFunction",
    "RecoveryPolicy",
    "RoundContext",
    "RoundStats",
    "RunStats",
    "Server",
    "StragglerFault",
    "audited",
    "faulty",
    "busiest_server",
    "hash_int_tuple",
    "load_histogram",
    "round_table",
    "splitmix64",
    "trace",
]
