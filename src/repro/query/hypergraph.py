"""Query hypergraphs and the GYO acyclicity test.

A conjunctive query induces a hypergraph: vertices are variables, each
atom contributes the hyperedge of its variables. α-acyclicity — the
property Yannakakis' algorithm needs — is decided by the GYO (Graham /
Yu–Özsoyoğlu) ear-removal procedure, which also yields a *join tree*:
one node per atom such that, for every variable, the atoms containing it
form a connected subtree.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import DecompositionError
from repro.query.cq import ConjunctiveQuery


class Hypergraph:
    """The hypergraph of a query: named edges over variable vertices."""

    def __init__(self, edges: dict[str, frozenset[str]]) -> None:
        if not edges:
            raise DecompositionError("a hypergraph needs at least one edge")
        self.edges = dict(edges)
        self.vertices: frozenset[str] = frozenset().union(*edges.values())

    @classmethod
    def of(cls, query: ConjunctiveQuery) -> "Hypergraph":
        return cls({a.name: a.var_set() for a in query.atoms})

    def edges_with(self, vertex: str) -> list[str]:
        """Names of edges containing ``vertex``."""
        return [name for name, vs in self.edges.items() if vertex in vs]

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}{sorted(vs)}" for n, vs in sorted(self.edges.items()))
        return f"Hypergraph({parts})"


def gyo_reduction(hypergraph: Hypergraph) -> tuple[bool, dict[str, str]]:
    """Run GYO ear removal.

    Returns ``(acyclic, parent)`` where ``parent`` maps each removed edge
    to the edge that witnessed its removal (the join-tree parent); the
    last remaining edge is the root and maps to itself.

    An edge ``e`` is an *ear* if some other edge ``f`` contains every
    vertex of ``e`` that also occurs outside ``e`` (vertices exclusive to
    ``e`` are free riders). The query is α-acyclic iff ears can be
    removed until one edge remains.
    """
    remaining: dict[str, set[str]] = {n: set(vs) for n, vs in hypergraph.edges.items()}
    parent: dict[str, str] = {}

    while len(remaining) > 1:
        ear = _find_ear(remaining)
        if ear is None:
            return False, parent
        name, witness = ear
        del remaining[name]
        parent[name] = witness

    root = next(iter(remaining))
    parent[root] = root
    return True, parent


def _find_ear(remaining: dict[str, set[str]]) -> tuple[str, str] | None:
    """One (ear, witness) pair, or None if no ear exists."""
    for name, vertices in remaining.items():
        # Vertices of `name` that occur in some other edge.
        shared = {
            v
            for v in vertices
            if any(v in other for oname, other in remaining.items() if oname != name)
        }
        for oname, other in remaining.items():
            if oname != name and shared <= other:
                return name, oname
    return None


def is_acyclic(query: ConjunctiveQuery) -> bool:
    """α-acyclicity of a conjunctive query (GYO)."""
    acyclic, _parent = gyo_reduction(Hypergraph.of(query))
    return acyclic


def join_tree(query: ConjunctiveQuery) -> dict[str, str]:
    """A join tree for an acyclic query, as a parent map over atom names.

    The root maps to itself. Raises :class:`DecompositionError` on cyclic
    queries. The returned tree satisfies the running-intersection
    property, which :func:`verify_join_tree` checks independently.
    """
    acyclic, parent = gyo_reduction(Hypergraph.of(query))
    if not acyclic:
        raise DecompositionError(f"query {query} is cyclic; no join tree exists")
    return parent


def verify_join_tree(query: ConjunctiveQuery, parent: dict[str, str]) -> bool:
    """Check the running-intersection property of a parent map.

    For every variable, the set of atoms containing it must induce a
    connected subtree of the tree defined by ``parent``.
    """
    names = {a.name for a in query.atoms}
    if set(parent) != names:
        return False
    roots = [n for n, p in parent.items() if p == n]
    if len(roots) != 1:
        return False

    def path_to_root(node: str) -> list[str]:
        path = [node]
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
            if len(path) > len(names):  # cycle guard
                return []
        return path

    for variable in query.variables:
        holders = [a.name for a in query.atoms_with(variable)]
        if len(holders) <= 1:
            continue
        # The subtree induced by `holders` is connected iff for every
        # holder, walking to the root, the first *other* holder reached is
        # connected through nodes... simplest correct check: the minimal
        # subtree spanning the holders must consist only of atoms that
        # contain the variable.
        paths = [path_to_root(h) for h in holders]
        if any(not p for p in paths):
            return False
        # Compute the union of pairwise path-symmetric-differences: the
        # spanning subtree is the union of paths up to the lowest common
        # ancestors. A node lies on the spanning subtree iff it appears in
        # some path but not in the common suffix of all paths.
        common_suffix_len = _common_suffix_length(paths)
        spanning: set[str] = set()
        for p in paths:
            spanning.update(p[: len(p) - common_suffix_len])
        # Add the deepest common ancestor (it joins the branches).
        spanning.add(paths[0][len(paths[0]) - common_suffix_len])
        holder_set = set(holders)
        if not spanning <= holder_set:
            return False
    return True


def minimize_depth(query: ConjunctiveQuery, parent: dict[str, str]) -> dict[str, str]:
    """Find a shallow orientation of a join tree.

    GYM's round count is proportional to the tree depth (slide 79), so a
    shallow join tree is preferable. A join tree is really an undirected
    tree — any node can serve as the root — so we try every root,
    greedily re-parent each node to the shallowest valid ancestor, and
    keep the shallowest result. For a star query this flattens the GYO
    chain to depth 1. The result is always a valid join tree.
    """
    best = None
    best_depth = None
    for root in sorted(parent):
        candidate = _flatten_from_root(query, _reroot(parent, root), root)
        depth = _tree_depth(candidate)
        if best_depth is None or depth < best_depth:
            best, best_depth = candidate, depth
    assert best is not None
    return best


def _reroot(parent: dict[str, str], new_root: str) -> dict[str, str]:
    """Re-orient a tree's parent map so ``new_root`` becomes the root."""
    # Undirected adjacency, then BFS from the new root.
    adjacency: dict[str, set[str]] = {n: set() for n in parent}
    for node, par in parent.items():
        if node != par:
            adjacency[node].add(par)
            adjacency[par].add(node)
    rerooted = {new_root: new_root}
    frontier = [new_root]
    while frontier:
        node = frontier.pop()
        # Sets of str iterate in PYTHONHASHSEED order, and the parent
        # map's insertion order decides the children order of the GHD and
        # hence GYM's measured load. Any fixed order would do; only its
        # determinism is load-bearing.
        for neighbour in sorted(adjacency[node], reverse=True):
            if neighbour not in rerooted:
                rerooted[neighbour] = node
                frontier.append(neighbour)
    return rerooted


def _tree_depth(parent: dict[str, str]) -> int:
    def depth_of(node: str) -> int:
        d = 0
        while parent[node] != node:
            node = parent[node]
            d += 1
        return d

    return max(depth_of(n) for n in parent)


def _flatten_from_root(
    query: ConjunctiveQuery, parent: dict[str, str], root: str
) -> dict[str, str]:
    """Greedily re-parent nodes toward the fixed root."""
    parent = dict(parent)

    def depth_of(node: str) -> int:
        d = 0
        while parent[node] != node:
            node = parent[node]
            d += 1
        return d

    changed = True
    while changed:
        changed = False
        for node in sorted(parent, key=depth_of):
            if node == root:
                continue
            # Walk the ancestor chain top-down, try the shallowest first.
            chain = []
            cursor = parent[node]
            while True:
                chain.append(cursor)
                if parent[cursor] == cursor:
                    break
                cursor = parent[cursor]
            for candidate in reversed(chain[1:]):  # exclude current parent
                trial = dict(parent)
                trial[node] = candidate
                if verify_join_tree(query, trial):
                    parent = trial
                    changed = True
                    break
    return parent


def _common_suffix_length(paths: Iterable[list[str]]) -> int:
    """Length of the longest common suffix of all paths."""
    reversed_paths = [list(reversed(p)) for p in paths]
    shortest = min(len(p) for p in reversed_paths)
    length = 0
    for i in range(shortest):
        tokens = {p[i] for p in reversed_paths}
        if len(tokens) == 1:
            length += 1
        else:
            break
    return length
