"""End-to-end tests for QueryService: admission, caching, splitting."""

import threading
import time

import pytest

from repro.data.relation import Relation
from repro.data.warehouse import make_warehouse
from repro.errors import (
    InFlightQuotaError,
    LoadCapQuotaError,
    QueryError,
    QueueFullError,
    ServiceClosedError,
)
from repro.kernels import memo
from repro.service import QueryService, ServiceStats, TenantQuota
from repro.service.splitter import canonical

QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"


def relations():
    return {
        "R": Relation("R", ["a", "b"], [(i, i % 5) for i in range(60)]),
        "S": Relation("S", ["b", "c"], [(i % 5, i) for i in range(40)]),
    }


class GateRelation(Relation):
    """A relation whose first read blocks until the gate opens.

    Lets tests park a worker thread inside an execution at a known
    point, making quota and backpressure scenarios deterministic.
    """

    def attach_gate(self, gate: threading.Event) -> None:
        self.gate = gate

    def __len__(self):
        self.gate.wait(timeout=10)
        return super().__len__()

    def rows_readonly(self):
        self.gate.wait(timeout=10)
        return super().rows_readonly()

    def columns(self):
        self.gate.wait(timeout=10)
        return super().columns()


def gated_service(**kwargs):
    gate = threading.Event()
    rel = GateRelation("G", ["a", "b"], [(i, i % 3) for i in range(10)])
    rel.attach_gate(gate)
    service = QueryService({"G": rel}, p=4, **kwargs)
    return service, gate


# ------------------------------------------------------------------ basics


def test_query_end_to_end_and_verify():
    with QueryService(relations(), p=4) as service:
        result = service.query(QUERY, verify=True)
        assert len(result.output) == 60 * 8   # 5 groups x fanout
        assert result.cache_hit is False
        assert result.max_load > 0
        assert result.rounds >= 1
        assert result.strategy


def test_accepts_generated_warehouse():
    with QueryService(make_warehouse(n_orders=60, n_customers=12), p=4) as svc:
        result = svc.query(
            "Q(order, cust, month, region, segment) :- "
            "Orders(order, cust, month), Customers(cust, region, segment)"
        )
        assert len(result.output) == 60


def test_unknown_relation_fails_the_ticket():
    with QueryService(relations(), p=4) as service:
        with pytest.raises(QueryError, match="no relation"):
            service.query("Q(x, y) :- Missing(x, y)")
        assert service.stats().failed == 1


def test_constructor_validation():
    with pytest.raises(QueryError):
        QueryService(relations(), workers=0)
    with pytest.raises(QueryError):
        QueryService(relations(), queue_size=0)
    with pytest.raises(QueryError):
        TenantQuota(max_in_flight=0)
    with pytest.raises(QueryError):
        TenantQuota(load_cap=0.0)


def test_split_argument_validation():
    with QueryService(relations(), p=4) as service:
        with pytest.raises(QueryError):
            service.query(QUERY, split=0)
        with pytest.raises(QueryError):
            service.query("Q(a, b) :- R(a, b)", split=2)


# ------------------------------------------------------------ admission


def test_closed_service_rejects():
    service = QueryService(relations(), p=4)
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(QUERY)


def test_in_flight_quota_enforced_deterministically():
    service, gate = gated_service(
        workers=2, default_quota=TenantQuota(max_in_flight=1)
    )
    try:
        ticket = service.submit("Q(a, b) :- G(a, b)")
        with pytest.raises(InFlightQuotaError) as exc_info:
            service.submit("Q(a, b) :- G(a, b)")
        assert exc_info.value.tenant == "default"
        gate.set()
        ticket.result(timeout=10)
        # Slot released: the same tenant can submit again.
        assert service.query("Q(a, b) :- G(a, b)", timeout=10)
        stats = service.stats()
        assert stats.rejected_in_flight == 1
        assert stats.tenants["default"].rejected_in_flight == 1
    finally:
        gate.set()
        service.close()


def test_quota_is_per_tenant():
    service, gate = gated_service(
        workers=2, default_quota=TenantQuota(max_in_flight=1)
    )
    try:
        first = service.submit("Q(a, b) :- G(a, b)", tenant="alice")
        second = service.submit("Q(a, b) :- G(a, b)", tenant="bob")
        gate.set()
        assert first.result(timeout=10).output
        assert second.result(timeout=10).output
    finally:
        gate.set()
        service.close()


def test_queue_full_rejection():
    service, gate = gated_service(workers=1, queue_size=1)
    try:
        first = service.submit("Q(a, b) :- G(a, b)")
        # Wait for the single worker to take the first job off the queue.
        deadline = time.time() + 5
        while service._queue.qsize() > 0 and time.time() < deadline:
            time.sleep(0.005)
        service.submit("Q(a, b) :- G(a, b)")          # fills the queue
        with pytest.raises(QueueFullError):
            service.submit("Q(a, b) :- G(a, b)")
        gate.set()
        first.result(timeout=10)
        assert service.stats().rejected_queue_full == 1
    finally:
        gate.set()
        service.close()


def test_load_cap_rejects_expensive_queries():
    quota = TenantQuota(load_cap=0.5)
    with QueryService(relations(), p=4, default_quota=quota) as service:
        with pytest.raises(LoadCapQuotaError) as exc_info:
            service.submit(QUERY)
        assert exc_info.value.predicted > 0.5
        stats = service.stats()
        assert stats.rejected_load_cap == 1
        # The reserved slot was released on rejection.
        assert stats.tenants["default"].in_flight == 0


def test_load_cap_admits_cheap_queries_and_prices_splits():
    quota = TenantQuota(load_cap=1e9)
    with QueryService(relations(), p=4, quotas={"t": quota}) as service:
        assert service.query(QUERY, tenant="t").output
        assert service.query(QUERY, tenant="t", split=2).output
        assert service.stats().rejected_load_cap == 0


def test_ticket_timeout_then_success():
    service, gate = gated_service(workers=1)
    try:
        ticket = service.submit("Q(a, b) :- G(a, b)")
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.05)
        gate.set()
        assert ticket.result(timeout=10).output
    finally:
        gate.set()
        service.close()


# ------------------------------------------------------------------ cache


def test_repeat_query_hits_cache():
    with QueryService(relations(), p=4) as service:
        miss = service.query(QUERY)
        hit = service.query(QUERY)
        assert (miss.cache_hit, hit.cache_hit) == (False, True)
        assert canonical(miss.output).rows_readonly() == \
            canonical(hit.output).rows_readonly()
        stats = service.stats().cache
        assert (stats.hits, stats.misses) == (1, 1)


def test_mutation_invalidates_cache():
    with QueryService(relations(), p=4) as service:
        service.query(QUERY)
        service.extend("R", [(100, 0)])
        result = service.query(QUERY)
        assert result.cache_hit is False
        assert len(result.output) == 60 * 8 + 8
        assert service.stats().cache.invalidations >= 1


def test_register_invalidates_cache():
    with QueryService(relations(), p=4) as service:
        before = service.query(QUERY)
        service.register(Relation("R", ["a", "b"], [(1, 2)]))
        after = service.query(QUERY)
        assert after.cache_hit is False
        assert len(after.output) < len(before.output)


def test_cache_hits_return_detached_outputs():
    """Mutating one hit's output must not corrupt later hits."""
    with QueryService(relations(), p=4) as service:
        service.query(QUERY)
        first = service.query(QUERY)
        expected = list(first.output.rows_readonly())
        first.output.rows().append(("junk",))      # the caller's copy
        first.output.add((0, 0, 0))                 # the caller's wrapper
        second = service.query(QUERY)
        assert second.cache_hit is True
        assert second.output.rows_readonly() == expected


def test_cache_disabled_never_hits():
    with QueryService(relations(), p=4, cache_size=0) as service:
        service.query(QUERY)
        assert service.query(QUERY).cache_hit is False


def test_strategy_and_split_key_separately():
    with QueryService(relations(), p=4) as service:
        service.query(QUERY)
        forced = service.query(QUERY, strategy="hash")
        split = service.query(QUERY, split=2)
        assert forced.cache_hit is False
        assert split.cache_hit is False
        assert service.query(QUERY, split=2).cache_hit is True


# ------------------------------------------------------------------ split


def test_split_results_byte_identical_to_whole():
    with QueryService(relations(), p=4) as service:
        whole = service.query(QUERY)
        for k in (2, 3, 5):
            split = service.query(QUERY, split=k)
            assert split.split == k
            assert len(split.strategy) == k
            assert split.output.rows_readonly() == \
                canonical(whole.output).rows_readonly()


def test_split_verify_against_oracle():
    with QueryService(relations(), p=4) as service:
        result = service.query(QUERY, split=3, verify=True)
        assert result.total_load >= result.max_load


def test_split_branches_share_one_alignment_memo():
    # Branch engines find the service engine's alignments in the
    # process-wide view cache: the unsplit inputs — identical relation
    # objects in every branch — are aligned and stored once, and every
    # branch's hits are summed into the counter ``stats()`` reports.
    # cache_size=0 keeps the result cache out of the measurement.
    def alignments():
        return sum(
            1 for key in memo._views.keys() if key[2] == "project" and key[4] is None
        )

    memo.clear_memo()
    with QueryService(relations(), p=4, cache_size=0) as service:
        service.query(QUERY)  # warms the alignments of R and S
        entries_before = alignments()
        hits_before = service.stats().align_cache_hits
        service.query(QUERY, split=3)
        # At least the unsplit input hit in each of the three branches;
        # only the three fresh fragments of the split atom were stored.
        assert service.stats().align_cache_hits - hits_before >= 3
        assert alignments() <= entries_before + 3


def test_split_branch_registration_keeps_the_shared_memo():
    # A branch runs the engine's pipeline over its own bindings; nothing
    # it does may wipe the owner's memo, so a repeat split query hits
    # instead of re-deriving.
    with QueryService(relations(), p=4, cache_size=0) as service:
        service.query(QUERY, split=2)
        hits_before = service.stats().align_cache_hits
        repeat = service.query(QUERY, split=2)
        assert service.stats().align_cache_hits > hits_before
        whole = service.query(QUERY)
        assert repeat.output.rows_readonly() == \
            canonical(whole.output).rows_readonly()


# ------------------------------------------------------------------ stats


def test_stats_snapshot_is_complete():
    with QueryService(relations(), p=4) as service:
        service.query(QUERY)
        service.query(QUERY, split=2)
        stats = service.stats()
        assert stats.submitted == stats.admitted == stats.completed == 2
        assert stats.failed == 0
        assert stats.rejected == 0
        assert stats.split_queries == 1
        assert stats.tenants["default"].completed == 2
        assert stats.tenants["default"].in_flight == 0


def test_stats_round_trip_through_the_counter_ledger():
    """``stats()`` is ``snapshot()`` of the live ledger: detached, and
    ``delta`` between two of them is what happened in between."""
    with QueryService(relations(), p=4) as service:
        service.query(QUERY)
        before = service.stats()
        service.query(QUERY, tenant="other", split=2)
        after = service.stats()
        diff = after.delta(before)
        assert (diff.submitted, diff.admitted, diff.completed) == (1, 1, 1)
        assert diff.split_queries == 1 and diff.failed == 0
        assert before.completed == 1 and before.tenants.keys() == {"default"}
        assert after.tenants["other"].completed == 1
        # A snapshot never aliases the live per-tenant ledgers.
        after.tenants["other"].completed = 99
        assert service.stats().tenants["other"].completed == 1
        for name in ServiceStats._COUNTERS:
            assert getattr(after, name) >= getattr(before, name), name


def test_context_manager_closes():
    with QueryService(relations(), p=4) as service:
        service.query(QUERY)
    with pytest.raises(ServiceClosedError):
        service.submit(QUERY)
    service.close()     # idempotent
