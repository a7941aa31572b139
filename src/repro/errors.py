"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation or query references attributes inconsistently."""


class QueryError(ReproError):
    """A conjunctive query is malformed or unsupported by an algorithm."""


class ClusterError(ReproError):
    """Misuse of the MPC cluster simulator (bad server id, nested rounds...)."""


class LoadExceededError(ClusterError):
    """A round tried to deliver more units to a server than the load cap.

    Raised at the round barrier *before* any tuple is delivered: the
    offending round is recorded in the statistics (marked undelivered)
    but no server fragment is mutated, so the cluster stays usable.
    """

    def __init__(self, server: int, load: int, cap: int) -> None:
        super().__init__(
            f"server {server} received {load} units in one round, "
            f"exceeding the load cap {cap}"
        )
        self.server = server
        self.load = load
        self.cap = cap


class FaultPlanError(ClusterError):
    """A fault-injection plan is malformed (see :mod:`repro.mpc.faults`).

    Raised when a :class:`~repro.mpc.faults.FaultPlan` carries
    inconsistent data — negative rounds, unknown channel-fault kinds,
    non-positive counts, or a checkpoint interval below one.
    """


class AuditError(ClusterError):
    """A conservation invariant of the MPC simulator was violated.

    Raised by :mod:`repro.mpc.audit` when a round's accounting does not
    add up (tuples sent ≠ tuples received, charged units ≠ recorded
    loads, free-round units charged, or ``C`` not advancing by the
    round's total).
    """

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"audit check {check!r} failed: {detail}")
        self.check = check
        self.detail = detail


class OracleMismatchError(ReproError):
    """A distributed execution disagreed with the single-node oracle.

    Raised by the differential harness (:mod:`repro.testing`) and by
    ``Engine.query(..., verify=True)`` when an algorithm's output differs
    from the trusted nested-loop evaluation as a multiset. Carries the
    inspectable bag difference.
    """

    def __init__(self, context: str, diff: object) -> None:
        summary = getattr(diff, "summary", lambda: str(diff))()
        super().__init__(f"{context}: {summary}")
        self.context = context
        self.diff = diff


class ServiceError(ReproError):
    """Base class for the concurrent query service (:mod:`repro.service`)."""


class ServiceClosedError(ServiceError):
    """A query was submitted to a service that has been shut down."""


class AdmissionError(ServiceError):
    """A query was rejected at admission; subclasses say why.

    Every admission rejection is *graceful*: the query never enters the
    work queue, no worker state is touched, and the rejection is counted
    in :class:`~repro.service.ServiceStats` under the subclass's
    counter. The ``tenant`` attribute names who was rejected.
    """

    def __init__(self, tenant: str, detail: str) -> None:
        super().__init__(f"tenant {tenant!r}: {detail}")
        self.tenant = tenant


class QueueFullError(AdmissionError):
    """The service's bounded work queue is full (global backpressure)."""

    def __init__(self, tenant: str, capacity: int) -> None:
        super().__init__(
            tenant, f"work queue is full (capacity {capacity})"
        )
        self.capacity = capacity


class InFlightQuotaError(AdmissionError):
    """The tenant already has its maximum number of queries in flight."""

    def __init__(self, tenant: str, in_flight: int, quota: int) -> None:
        super().__init__(
            tenant,
            f"{in_flight} queries in flight, quota allows {quota}",
        )
        self.in_flight = in_flight
        self.quota = quota


class LoadCapQuotaError(AdmissionError):
    """The optimizer priced the query above the tenant's load cap."""

    def __init__(self, tenant: str, predicted: float, cap: float) -> None:
        super().__init__(
            tenant,
            f"predicted load {predicted:.1f} exceeds the tenant load cap "
            f"{cap:.1f}",
        )
        self.predicted = predicted
        self.cap = cap


class DecompositionError(ReproError):
    """A hypertree decomposition could not be built (e.g. cyclic query)."""


class OptimizationError(ReproError):
    """An LP / share-optimization problem failed to solve."""
