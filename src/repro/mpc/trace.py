"""Human-readable traces of MPC executions.

Debugging a distributed algorithm usually starts with *where did the
load go*. This module renders :class:`~repro.mpc.stats.RunStats` as
text: a per-round table and an ASCII histogram of per-server loads, so
skew is visible at a glance::

    round        L      total  imbalance
    hash-shuffle 1154   8000   1.15
    server loads [hash-shuffle]
      s00 ████████████████████ 1154
      s01 █████████████▌        812
      ...

Labels longer than the 24-character column are truncated with an
ellipsis so the table stays aligned; a round rejected by the load cap
(recorded but undelivered) is marked with a trailing ``!``. A run laid
out on disjoint server pools (SkewHC's residuals) gets a ``pools:`` line
— how many residuals share how many pool servers of ``p``. When the run
was audited (``Cluster(p, audit=True)``), :func:`trace` appends the
audit summary line; when it ran under fault injection
(:mod:`repro.mpc.faults`), the fault/recovery summary follows.
"""

from __future__ import annotations

from repro.mpc.stats import RoundStats, RunStats

_BAR_WIDTH = 24
_LABEL_WIDTH = 24
_FULL_BLOCK = "█"
_HALF_BLOCK = "▌"
_MIN_TICK = "▏"


def _fit_label(label: str, width: int = _LABEL_WIDTH) -> str:
    """Truncate a label to the table's column width with an ellipsis."""
    if len(label) <= width:
        return label
    return label[: width - 1] + "…"


def round_table(stats: RunStats) -> str:
    """A per-round summary table (label, L, total, imbalance).

    Undelivered rounds (rejected by the load cap at the barrier) are
    flagged with ``!`` after the label and excluded from the totals, as
    in :class:`~repro.mpc.stats.RunStats`.
    """
    lines = [f"{'round':<{_LABEL_WIDTH}} {'L':>8} {'total':>10} {'imbalance':>10}"]
    for rd in stats.rounds:
        # Truncate before flagging so the "!" survives long labels.
        if rd.delivered:
            label = _fit_label(rd.label)
        else:
            label = _fit_label(rd.label, _LABEL_WIDTH - 2) + " !"
        lines.append(
            f"{label:<{_LABEL_WIDTH}} {rd.max_load:>8} {rd.total:>10} "
            f"{rd.imbalance:>10.2f}"
        )
    lines.append(
        f"{'TOTAL':<{_LABEL_WIDTH}} {stats.max_load:>8} "
        f"{stats.total_communication:>10} {'r=' + str(stats.num_rounds):>10}"
    )
    return "\n".join(lines)


def load_histogram(round_stats: RoundStats, width: int = _BAR_WIDTH) -> str:
    """A bar per server for one round's received loads.

    Bars use the block characters promised by the module docstring: full
    blocks ``█`` with a half block ``▌`` for the fractional remainder; a
    tiny-but-nonzero load always shows at least a ``▏`` tick.
    """
    peak = max(round_stats.max_load, 1)
    lines = [f"server loads [{_fit_label(round_stats.label)}]"]
    for sid, load in enumerate(round_stats.received):
        scaled = load / peak * width
        bar = _FULL_BLOCK * int(scaled)
        if scaled - int(scaled) >= 0.5:
            bar += _HALF_BLOCK
        if load and not bar:
            bar = _MIN_TICK
        lines.append(f"  s{sid:02d} {bar:<{width}} {load}")
    return "\n".join(lines)


def trace(stats: RunStats, histograms: bool = False) -> str:
    """Full trace: the round table, optionally with per-round histograms.

    Audited runs (see :mod:`repro.mpc.audit`) get their audit summary
    appended; fault-injected runs (see :mod:`repro.mpc.faults`) get the
    fault/recovery summary as the last line.
    """
    parts = [round_table(stats)]
    if histograms:
        for rd in stats.rounds:
            if rd.total and rd.delivered:
                parts.append(load_histogram(rd))
    if stats.pools:
        # Disjoint pools side by side (SkewHC): every residual gets at least
        # one server, so their sum may exceed p — the rounds above list them all.
        pools = [size for size in stats.pools if size]
        parts.append(
            f"pools: {len(stats.pools)} residuals on {sum(pools)} pool servers of "
            f"p={stats.p} ({pools.count(1)} single-server)"
        )
    if stats.audit is not None:
        parts.append(stats.audit.summary())
    if stats.faults is not None:
        parts.append(stats.faults.summary())
    if stats.exec is not None and stats.exec.backend != "inline":
        bpm = stats.exec.bytes_per_message
        parts.append(
            f"exec: backend={stats.exec.backend}x{stats.exec.workers} "
            f"chunks={stats.exec.chunks} "
            f"queue_messages={stats.exec.queue_messages} "
            f"bytes/msg={'n/a' if bpm is None else format(bpm, '.0f')}"
        )
    if stats.memo is not None and stats.memo.any_activity:
        parts.append(stats.memo.summary())
    return "\n\n".join(parts)


def busiest_server(stats: RunStats) -> tuple[int, int]:
    """(server id, total received) of the run's most loaded server.

    A round may list more servers than ``p`` (disjoint pools that each got
    their one server), so the totals run as long as the longest
    ``received`` list.
    """
    if not stats.rounds:
        return (0, 0)
    totals = [0] * max(stats.p, *(len(rd.received) for rd in stats.rounds))
    for rd in stats.rounds:
        if not rd.delivered:
            continue
        for sid, load in enumerate(rd.received):
            totals[sid] += load
    sid = max(range(len(totals)), key=lambda i: totals[i])
    return sid, totals[sid]
