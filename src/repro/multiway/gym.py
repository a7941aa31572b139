"""GYM: distributed Yannakakis over a GHD (slides 78–95).

GYM runs Yannakakis' three phases as MPC rounds:

- **vanilla** — one semijoin or join per round, sequentially:
  r = O(n) rounds, L = O((IN + OUT)/p) (slides 80–89);
- **optimized** — independent operations share rounds: all semijoins of
  one tree level run simultaneously on side-by-side server pools (a parent
  reduced by several same-key children needs just one round — the
  intersect trick of slides 90–92), and each join level is a single
  one-round HyperCube of a node with its children's results (slide 93's
  "Skew-HC" join phase). Rounds drop to O(depth) (slide 94).

For GHDs of width w > 1 each node's *bag* is first materialized by
joining its cover atoms — the source of the IN^w term in the trade-off
r = O(d), L = O((IN^w + OUT)/p) of slide 95.

Every phase runs on the query's one cluster, in order; a round's pools
are server ranges of it (:func:`~repro.multiway.base.on_pools`).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.memo import align, bound, project_view
from repro.mpc.cluster import Cluster
from repro.multiway.base import MultiwayRun, join_step, on_pools, semijoin_step
from repro.multiway.hypercube import hypercube_on
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.ghd import GHD, GHDNode
from repro.query.shape import shape


def gym(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    ghd: GHD | None = None,
    variant: str = "optimized",
    seed: int = 0,
) -> MultiwayRun:
    """Distributed Yannakakis on ``p`` servers.

    ``variant`` is ``"optimized"`` (r = O(depth)) or ``"vanilla"``
    (r = O(#nodes)). Works on any valid GHD of the query; defaults to the
    depth-minimized GYO join tree the query's
    :func:`~repro.query.shape.shape` keeps (shared: read only).
    """
    if variant not in ("optimized", "vanilla"):
        raise QueryError(f"unknown GYM variant {variant!r}")
    if ghd is None:
        ghd = shape(query).width1_ghd(query)

    # A GHD may reuse an atom in several covers (e.g. the balanced path
    # decomposition). Under bag semantics reuse would square duplicate
    # multiplicities, so such runs switch to set semantics: bags are
    # deduplicated and each output tuple appears exactly once.
    cover_uses = [name for node in ghd.nodes() for name in node.cover]
    set_semantics = len(cover_uses) != len(set(cover_uses))

    cluster = Cluster(p, seed=seed)
    working = _materialize_bags(
        query, relations, ghd, cluster, seed,
        parallel=(variant == "optimized"),
        dedupe=set_semantics,
    )

    levels = ghd.levels()
    full_reducer(working, levels, cluster, (seed, seed + 1000), variant)

    # Join phase, bottom-up.
    _join_phase(working, levels, cluster, seed + 2000, variant)

    result = working[id(ghd.root)]
    output = result.project(list(query.variables), name="OUT")
    return MultiwayRun(
        output,
        cluster.stats,
        {
            "variant": variant,
            "width": ghd.width,
            "depth": ghd.depth,
            "set_semantics": set_semantics,
        },
    )


# ------------------------------------------------------------ bag building


def _materialize_bags(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    ghd: GHD,
    cluster: Cluster,
    seed: int,
    parallel: bool,
    dedupe: bool = False,
) -> dict[int, Relation]:
    """Join each node's cover atoms and project to its bag.

    Width-1 nodes cost nothing. Wider nodes run one join per step; in
    parallel mode, step t of every node shares a round, else each join is
    a wave of its own.
    """
    working: dict[int, Relation] = {}
    pending: list[tuple[GHDNode, list[Relation]]] = []
    for node in ghd.nodes():
        covers = [
            align(query.atom(name), bound(relations, name)) for name in node.cover
        ]
        if dedupe:
            covers = [rel.distinct() for rel in covers]
        if len(covers) == 1:
            working[id(node)] = _project_bag(covers[0], node, dedupe)
        else:
            pending.append((node, _greedy_join_order(covers)))

    step = 0
    current: dict[int, Relation] = {
        id(node): covers[0] for node, covers in pending
    }

    def join_next(task: tuple[GHDNode, list[Relation]], pool: Cluster) -> Relation:
        node, covers = task
        return join_step(pool, current[id(node)], covers[step], label=f"bag-join-{step}")

    while pending:
        step += 1
        for wave in [pending] if parallel else [[task] for task in pending]:
            weights = [len(current[id(node)]) + len(covers[step]) for node, covers in wave]
            joined = on_pools(cluster, wave, weights, seed + step, join_next)
            for (node, covers), rel in zip(wave, joined):
                current[id(node)] = rel
                if step == len(covers) - 1:
                    working[id(node)] = _project_bag(rel, node, dedupe)
        pending = [
            (node, covers) for node, covers in pending if id(node) not in working
        ]
    return working


def _greedy_join_order(covers: list[Relation]) -> list[Relation]:
    """Reorder cover atoms so consecutive joins share attributes if possible."""
    remaining = list(covers[1:])
    ordered = [covers[0]]
    seen = set(covers[0].schema.attributes)
    while remaining:
        connected = [r for r in remaining if seen & set(r.schema.attributes)]
        pick = connected[0] if connected else remaining[0]
        remaining.remove(pick)
        ordered.append(pick)
        seen |= set(pick.schema.attributes)
    return ordered


def _project_bag(rel: Relation, node: GHDNode, dedupe: bool = False) -> Relation:
    """``rel`` projected to ``node``'s bag: ``rel`` itself when it keeps every
    attribute (so its steps read the views built for it, and a cover or a
    join of covers is already a set), else a copy deduplicated under ``dedupe``."""
    bag_attrs = [a for a in rel.schema.attributes if a in node.bag]
    if len(bag_attrs) == len(rel.schema.attributes):
        return rel
    # Memoized: repeated GYM runs over unchanged inputs reuse the bag
    # projection (read-only downstream — semijoins replace, never mutate).
    projected = project_view(rel, bag_attrs, name=f"B{node.cover[0]}")
    return projected.distinct() if dedupe else projected


# ------------------------------------------------------------- semijoins


def full_reducer(
    working: dict[int, Relation],
    levels: list[list[GHDNode]],
    cluster: Cluster,
    seeds: tuple[int, int],
    variant: str = "optimized",
) -> None:
    """Yannakakis' full reducer on ``cluster``: the upward, then the
    downward semijoin sweep.

    ``working`` maps ``id(node)`` to the node's relation and is reduced
    in place; ``levels`` is :meth:`~repro.query.ghd.GHD.levels`;
    ``seeds`` are the (upward, downward) hash seeds.
    """
    up_seed, down_seed = seeds
    # Deepest level first: each level reduces the one above it.
    for depth in range(len(levels) - 1, 0, -1):
        _semijoin_level(working, levels[depth - 1], cluster, up_seed, variant, "up")
    for depth in range(len(levels) - 1):
        _semijoin_level(working, levels[depth], cluster, down_seed, variant, "down")


def _semijoin_level(
    working: dict[int, Relation],
    parents: list[GHDNode],
    cluster: Cluster,
    seed: int,
    variant: str,
    direction: str,
) -> None:
    """All semijoins between one tree level and the next.

    ``direction="up"``: each parent is reduced by all its children;
    ``direction="down"``: each child is reduced by its parent. Optimized
    mode packs independent operations (grouped by target and key) into
    shared rounds on proportionally allocated pools; vanilla runs every
    (target, reducer) pair as a wave of its own.
    """
    # Expand into (target_node, [reducer relations]) with a common key;
    # a disconnected child shares no key and constrains nothing.
    tasks: list[tuple[GHDNode, list[Relation]]] = []
    for parent in parents:
        if direction == "up":
            groups: dict[tuple[str, ...], list[Relation]] = {}
            for child in parent.children:
                key = working[id(parent)].schema.common(working[id(child)].schema)
                if key:
                    groups.setdefault(key, []).append(working[id(child)])
            for reducers in groups.values():
                tasks.append((parent, reducers))
        else:
            for child in parent.children:
                if working[id(child)].schema.common(working[id(parent)].schema):
                    tasks.append((child, [working[id(parent)]]))

    waves: list[list[tuple[GHDNode, list[Relation]]]] = []
    if variant == "optimized":
        # Tasks with the same target (several key groups of one parent)
        # cannot share a round; pack them into waves of distinct targets.
        for task in tasks:
            for wave in waves:
                if all(id(task[0]) != id(t[0]) for t in wave):
                    wave.append(task)
                    break
            else:
                waves.append([task])
    else:
        waves = [[(target, [reducer])] for target, reducers in tasks for reducer in reducers]

    def reduce(task: tuple[GHDNode, list[Relation]], pool: Cluster) -> Relation:
        target, reducers = task
        return semijoin_step(pool, working[id(target)], reducers, label=f"semijoin-{direction}")

    for wave in waves:
        weights = [len(working[id(t)]) + sum(len(r) for r in reds) for t, reds in wave]
        reduced = on_pools(cluster, wave, weights, seed, reduce)
        for (target, _reducers), rel in zip(wave, reduced):
            working[id(target)] = rel


# ------------------------------------------------------------- join phase


def _join_phase(
    working: dict[int, Relation],
    levels: list[list[GHDNode]],
    cluster: Cluster,
    seed: int,
    variant: str,
) -> None:
    """Bottom-up joins. Optimized: one HyperCube round per level."""
    for depth in range(len(levels) - 1, 0, -1):
        parents = [n for n in levels[depth - 1] if n.children]
        if not parents:
            continue
        if variant == "optimized":
            weights = [
                len(working[id(parent)]) + sum(len(working[id(c)]) for c in parent.children)
                for parent in parents
            ]
            merged = on_pools(
                cluster, parents, weights, seed + depth,
                lambda parent, pool: _hypercube_merge(working, parent, pool),
            )
            for parent, rel in zip(parents, merged):
                working[id(parent)] = rel
        else:
            for parent in parents:
                result = working[id(parent)]
                for child in parent.children:
                    with cluster.step(seed + depth) as step:
                        result = join_step(step, result, working[id(child)], label="join-up")
                working[id(parent)] = result


def _hypercube_merge(working: dict[int, Relation], parent: GHDNode, pool: Cluster) -> Relation:
    """Join a parent with all its children's results in one round on ``pool``."""
    parts = [working[id(parent)]] + [working[id(c)] for c in parent.children]
    atoms = []
    rels: dict[str, Relation] = {}
    for i, rel in enumerate(parts):
        name = f"P{i}"
        atoms.append(Atom(name, list(rel.schema.attributes)))
        rels[name] = rel.rename({}, name=name)
    return hypercube_on(pool, ConjunctiveQuery(atoms), rels)[0]
