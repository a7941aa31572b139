"""``python -m repro serve`` — stand up the query service and drive it.

Generates the star-schema warehouse, starts a :class:`QueryService`,
then plays a concurrent client load against it: ``--clients`` threads,
each issuing ``--queries`` requests drawn round-robin from the built-in
workload mix, under per-client tenant identities. Prints a throughput
and admission report, and (with ``--check``) asserts every concurrent
result byte-identical to a serial oracle pass.

This is the interactive face of the same harness ``selftest --service``
runs programmatically.
"""

from __future__ import annotations

import argparse
import threading
import time

from repro.data.warehouse import make_warehouse
from repro.errors import AdmissionError
from repro.service.service import QueryService, TenantQuota
from repro.service.splitter import canonical

__all__ = ["WORKLOAD", "drive_load", "main"]

# The built-in workload: joins over the generated star schema, phrased
# on the relations' own attribute names (the engine aligns atom
# variables against schema attributes).
WORKLOAD: tuple[str, ...] = (
    "Q(order, cust, month, region, segment) :- "
    "Orders(order, cust, month), Customers(cust, region, segment)",
    "Q(order, part, qty, brand) :- Lineitems(order, part, qty), Parts(part, brand)",
    "Q(order, cust, month, part, qty) :- "
    "Orders(order, cust, month), Lineitems(order, part, qty)",
    "Q(cust, region, segment) :- Customers(cust, region, segment)",
)


def drive_load(
    service: QueryService,
    clients: int,
    queries_per_client: int,
    split: int = 1,
    workload: tuple[str, ...] = WORKLOAD,
) -> dict[str, object]:
    """Concurrent load driver: barrier-started client threads.

    Every client is its own tenant (``client-<i>``); clients start on a
    barrier so the queue and quotas actually contend. Returns a summary
    dict (counts, wall seconds, per-result metadata) — admission
    rejections are counted, not fatal.
    """
    results: list[tuple[str, float]] = []
    rejected = [0]
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        tenant = f"client-{index}"
        barrier.wait()
        for j in range(queries_per_client):
            query = workload[(index + j) % len(workload)]
            use_split = split if query.count("(") > 2 else 1  # head + >=2 atoms
            try:
                result = service.query(
                    query, tenant=tenant, split=use_split
                )
            except AdmissionError:
                with lock:
                    rejected[0] += 1
            except BaseException as exc:  # noqa: BLE001 - reported at the end
                with lock:
                    errors.append(exc)
            else:
                with lock:
                    results.append((query, result.seconds))

    threads = [
        threading.Thread(target=client, args=(i,), name=f"load-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return {
        "clients": clients,
        "queries_per_client": queries_per_client,
        "completed": len(results),
        "rejected": rejected[0],
        "seconds": elapsed,
        "queries_per_second": len(results) / elapsed if elapsed > 0 else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the concurrent query service under a client load.",
    )
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--queries", type=int, default=8,
                        help="queries per client (default 8)")
    parser.add_argument("--workers", type=int, default=4,
                        help="service worker threads (default 4)")
    parser.add_argument("--p", type=int, default=8,
                        help="virtual servers per query (default 8)")
    parser.add_argument("--split", type=int, default=1,
                        help="split factor for join queries (default 1)")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="bounded work queue capacity (default 64)")
    parser.add_argument("--max-in-flight", type=int, default=8,
                        help="per-tenant in-flight quota (default 8)")
    parser.add_argument("--load-cap", type=float, default=None,
                        help="per-tenant predicted-load cap (default off)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="result cache capacity, 0 disables (default 256)")
    parser.add_argument("--orders", type=int, default=2000,
                        help="warehouse fact-table size (default 2000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true",
                        help="verify one result per workload query against "
                             "a serial baseline (byte identity)")
    args = parser.parse_args(argv)

    warehouse = make_warehouse(
        n_orders=args.orders,
        n_customers=max(50, args.orders // 10),
        seed=args.seed,
    )
    quota = TenantQuota(max_in_flight=args.max_in_flight,
                        load_cap=args.load_cap)
    print(f"warehouse: {warehouse.total_tuples} tuples across 4 relations")
    with QueryService(
        warehouse,
        p=args.p,
        workers=args.workers,
        queue_size=args.queue_size,
        default_quota=quota,
        cache_size=args.cache_size,
        seed=args.seed,
    ) as service:
        baselines: dict[str, list] = {}
        if args.check:
            for query in WORKLOAD:
                baselines[query] = canonical(
                    service.query(query).output
                ).rows_readonly()

        summary = drive_load(
            service, args.clients, args.queries, split=args.split
        )
        print(
            f"load: {summary['completed']} completed, "
            f"{summary['rejected']} rejected in {summary['seconds']:.2f}s "
            f"({summary['queries_per_second']:.1f} q/s)"
        )

        failures = 0
        if args.check:
            for query, expected in baselines.items():
                got = canonical(service.query(query).output).rows_readonly()
                status = "ok" if got == expected else "MISMATCH"
                failures += status != "ok"
                print(f"  check {status}: {query.split(':-')[0].strip()} "
                      f"({len(got)} rows)")

        stats = service.stats()
        print(
            f"admission: {stats.submitted} submitted, {stats.admitted} admitted, "
            f"{stats.completed} completed, {stats.failed} failed"
        )
        print(
            f"rejections: queue_full={stats.rejected_queue_full} "
            f"in_flight={stats.rejected_in_flight} "
            f"load_cap={stats.rejected_load_cap}"
        )
        print(
            f"cache: {stats.cache.hits} hits / {stats.cache.misses} misses "
            f"(rate {stats.cache.hit_rate:.2f}), "
            f"{stats.cache.evictions} evicted, "
            f"{stats.cache.invalidations} invalidated, size {stats.cache.size}"
        )
        print(
            f"split queries: {stats.split_queries} "
            f"({stats.patched_queries} patched after an append)"
        )
        print(f"align cache hits: {stats.align_cache_hits}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
