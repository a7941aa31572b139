"""The deterministic concurrency harness for the query service.

Heavy multi-thread suites, marked ``concurrency`` (excluded from the
tier-1 default run; the CI ``service`` job runs them repeatedly under
``PYTHONHASHSEED=0``). Determinism techniques:

- **barrier-synchronized pools**: every client thread parks on a
  barrier and the whole pool releases at once, so the queue, quotas,
  and cache actually contend instead of running nose-to-tail;
- **seeded interleavings**: each scenario draws its tenant/query/split
  mix from ``random.Random(seed)``, so a failure replays exactly;
- **hypothesis-driven mixes**: the byte-identity property runs over
  generated workload mixes, shrinking to a minimal failing schedule.
"""

import random
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.errors import AdmissionError
from repro.service import QueryService, TenantQuota
from repro.service.splitter import canonical
from repro.testing.oracle import oracle_join
from repro.query.parser import parse_query

pytestmark = pytest.mark.concurrency

QUERIES = (
    "Q(a, b, c) :- R(a, b), S(b, c)",
    "Q(a, b) :- R(a, b)",
    "Q(b, c) :- S(b, c)",
    "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)",
)


def relations(n=80):
    return {
        "R": Relation("R", ["a", "b"], [(i, i % 7) for i in range(n)]),
        "S": Relation("S", ["b", "c"], [(i % 7, i % 11) for i in range(n)]),
        "T": Relation("T", ["c", "d"], [(i % 11, i) for i in range(n // 2)]),
    }


def run_clients(service, plans):
    """Start one barrier-synchronized thread per plan; collect outcomes.

    Each plan is a list of (query, tenant, split) submissions. Returns
    (results, rejections, errors) where results maps a submission to
    its canonical output rows.
    """
    barrier = threading.Barrier(len(plans))
    results = []
    rejections = []
    errors = []
    lock = threading.Lock()

    def client(plan):
        try:
            barrier.wait(timeout=30)
        except threading.BrokenBarrierError as exc:
            with lock:
                errors.append(exc)
            return
        for query, tenant, split in plan:
            try:
                result = service.query(
                    query, tenant=tenant, split=split, timeout=60
                )
            except AdmissionError as exc:
                with lock:
                    rejections.append(exc)
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)
            else:
                with lock:
                    results.append(
                        (query, split,
                         tuple(canonical(result.output).rows_readonly()))
                    )
    threads = [threading.Thread(target=client, args=(p,)) for p in plans]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, rejections, errors


def serial_baselines(rels, queries=QUERIES):
    expected = {}
    for query in queries:
        cq = parse_query(query)
        out = oracle_join(cq, rels)
        expected[query] = tuple(sorted(out.rows_readonly()))
    return expected


def seeded_plans(seed, clients, per_client, max_split=3):
    rng = random.Random(seed)
    plans = []
    for index in range(clients):
        plan = []
        for _ in range(per_client):
            query = rng.choice(QUERIES)
            split = (
                rng.randint(2, max_split)
                if max_split >= 2 and rng.random() < 0.3
                and query.count("(") > 2 else 1
            )
            tenant = f"tenant-{rng.randint(0, 2)}"
            plan.append((query, tenant, split))
        plans.append(plan)
    return plans


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_byte_identity_under_contention(seed):
    """Every concurrent result equals the serial oracle, byte for byte."""
    rels = relations()
    expected = serial_baselines(rels)
    with QueryService(
        rels, p=4, workers=4, queue_size=128,
        default_quota=TenantQuota(max_in_flight=64),
    ) as service:
        plans = seeded_plans(seed, clients=6, per_client=8)
        results, rejections, errors = run_clients(service, plans)
        assert not errors
        assert not rejections          # quotas sized to admit everything
        assert len(results) == 6 * 8
        for query, _split, rows in results:
            assert rows == expected[query], f"{query} diverged (seed {seed})"


def test_overload_rejects_gracefully_and_recovers():
    """A swamped service rejects typed errors, loses nothing, recovers."""
    rels = relations()
    with QueryService(
        rels, p=4, workers=1, queue_size=2,
        default_quota=TenantQuota(max_in_flight=2),
    ) as service:
        plans = seeded_plans(7, clients=8, per_client=6, max_split=1)
        results, rejections, errors = run_clients(service, plans)
        assert not errors
        # Conservation: every submission either completed or was rejected.
        assert len(results) + len(rejections) == 8 * 6
        stats = service.stats()
        assert stats.completed == len(results)
        assert stats.rejected == len(rejections)
        assert stats.rejected_in_flight + stats.rejected_queue_full == \
            stats.rejected
        # No slots leaked: the service still serves after the storm.
        assert all(t.in_flight == 0 for t in stats.tenants.values())
        after = service.query(QUERIES[0], timeout=30)
        assert after.output


def test_quota_never_exceeded_under_contention():
    """max_in_flight is a hard bound even with racing submitters."""
    rels = relations()
    quota = TenantQuota(max_in_flight=3)
    with QueryService(
        rels, p=4, workers=4, queue_size=128, default_quota=quota
    ) as service:
        peak = [0]
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def submitter():
            barrier.wait(timeout=30)
            for _ in range(10):
                try:
                    ticket = service.submit(QUERIES[1], tenant="shared")
                except AdmissionError:
                    continue
                with lock:
                    in_flight = service.stats().tenants["shared"].in_flight
                    peak[0] = max(peak[0], in_flight)
                ticket.result(timeout=60)

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert 0 < peak[0] <= 3


def test_cache_coherent_across_concurrent_mutation():
    """Readers racing a writer only ever see pre- or post-mutation truth."""
    rels = relations()
    query = QUERIES[0]
    cq = parse_query(query)
    before = tuple(sorted(oracle_join(cq, rels).rows_readonly()))
    new_rows = [(1000 + i, i % 7) for i in range(10)]
    mutated = dict(rels)
    mutated["R"] = Relation(
        "R", ["a", "b"], list(rels["R"].rows_readonly()) + new_rows
    )
    after = tuple(sorted(oracle_join(cq, mutated).rows_readonly()))
    assert before != after

    with QueryService(
        rels, p=4, workers=4, queue_size=128,
        default_quota=TenantQuota(max_in_flight=64),
    ) as service:
        outputs = []
        errors = []
        lock = threading.Lock()
        barrier = threading.Barrier(5)

        def reader(index):
            try:
                barrier.wait(timeout=30)
                for _ in range(12):
                    result = service.query(query, tenant=f"r{index}", timeout=60)
                    with lock:
                        outputs.append(
                            tuple(canonical(result.output).rows_readonly())
                        )
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        def writer():
            try:
                barrier.wait(timeout=30)
                service.extend("R", new_rows)
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Atomicity: never a torn catalog — only the two legal answers.
        torn = [rows for rows in outputs if rows not in (before, after)]
        assert not torn
        # Coherency: once the write landed, a fresh query sees the new rows.
        final = service.query(query, timeout=60)
        assert tuple(canonical(final.output).rows_readonly()) == after
        counts = Counter(
            "after" if rows == after else "before" for rows in outputs
        )
        assert counts["before"] + counts["after"] == len(outputs)


def test_split_stays_exact_while_a_writer_extends_the_split_relation():
    """canonical(merge) == canonical(unsplit) across writes to the split atom.

    The splitter's fragments are a memoized view of their parent: every
    extend of R (the relation the rewriter partitions) must hand later
    split queries fresh fragments, so each result is the truth of one
    of the catalog states the writer produced — never a stale fragment
    of an earlier one.
    """
    rels = relations()
    query = QUERIES[0]
    cq = parse_query(query)
    batches = [[(2000 + 10 * b + i, (b + i) % 7) for i in range(10)] for b in range(5)]
    legal = []
    state = dict(rels)
    for batch in [[]] + batches:
        state["R"] = Relation(
            "R", ["a", "b"], list(state["R"].rows_readonly()) + batch
        )
        legal.append(tuple(sorted(oracle_join(cq, state).rows_readonly())))
    assert len(set(legal)) == len(legal)

    with QueryService(
        rels, p=4, workers=4, queue_size=128, cache_size=0,
        default_quota=TenantQuota(max_in_flight=64),
    ) as service:
        outputs, errors = [], []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def reader(index):
            try:
                barrier.wait(timeout=30)
                for turn in range(10):
                    result = service.query(
                        query, tenant=f"r{index}", split=2 + (index + turn) % 2,
                        timeout=60,
                    )
                    with lock:
                        outputs.append(tuple(result.output.rows_readonly()))
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        def writer():
            try:
                barrier.wait(timeout=30)
                for batch in batches:
                    service.query(query, tenant="w", split=3, timeout=60)
                    service.extend("R", batch)
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(outputs) == 30
        assert not [rows for rows in outputs if rows not in legal]
        # After the last write: split and unsplit agree on the final state.
        unsplit = service.query(query, timeout=60)
        for k in (2, 3):
            split = service.query(query, split=k, timeout=60)
            assert split.output.rows_readonly() == \
                canonical(unsplit.output).rows_readonly()
        assert tuple(canonical(unsplit.output).rows_readonly()) == legal[-1]


@settings(max_examples=10, deadline=None)
@given(
    mix=st.lists(
        st.tuples(
            st.sampled_from(QUERIES),
            st.sampled_from(["alice", "bob", "carol"]),
            st.sampled_from([1, 1, 1, 2, 3]),
        ),
        min_size=4, max_size=16,
    ),
    clients=st.integers(2, 4),
)
def test_hypothesis_mixes_stay_byte_identical(mix, clients):
    """Any tenant/query/split mix under any client count is oracle-exact."""
    rels = relations(n=40)
    expected = serial_baselines(rels)
    legal = [
        (q, t, s if q.count("(") > 2 else 1) for q, t, s in mix
    ]
    plans = [legal[i::clients] for i in range(clients)]
    plans = [p for p in plans if p]
    with QueryService(
        rels, p=4, workers=3, queue_size=128,
        default_quota=TenantQuota(max_in_flight=64),
    ) as service:
        results, rejections, errors = run_clients(service, plans)
        assert not errors
        assert not rejections
        assert len(results) == len(legal)
        for query, _split, rows in results:
            assert rows == expected[query]
