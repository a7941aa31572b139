"""Generalized hypertree decompositions (GHDs) — slides 64, 79, 95.

A GHD of a query is a rooted tree where each node has a *bag* of
variables and a *cover* λ (a set of atoms whose variables contain the
bag), such that

1. every atom's variables are contained in some bag ("coverage"),
2. for every variable, the nodes whose bag contains it form a connected
   subtree ("running intersection"),
3. each bag is contained in the union of its cover atoms' variables.

The *width* is the maximum cover size; acyclic queries are exactly those
with width-1 GHDs (join trees). GYM runs on any GHD; its cost is
``r = O(depth)`` rounds and ``L = O((IN^width + OUT)/p)`` load, so GHDs
of different shapes trade rounds for load (slide 95). This module builds:

- :func:`width1_ghd` — a join tree for any acyclic query (via GYO);
- :func:`path_chain_ghd` / :func:`path_flat_ghd` /
  :func:`path_balanced_ghd` — the three path-query decompositions of
  slide 95 (w=1 d=n; w≈n/2 d=1; w=3 d=log n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DecompositionError
from repro.query.cq import ConjunctiveQuery, path_query
from repro.query.hypergraph import join_tree, minimize_depth


@dataclass
class GHDNode:
    """One node of a decomposition: a variable bag covered by λ atoms."""

    bag: frozenset[str]
    cover: tuple[str, ...]
    children: list["GHDNode"] = field(default_factory=list)

    def walk(self) -> list["GHDNode"]:
        """All nodes of the subtree, preorder."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes


class GHD:
    """A generalized hypertree decomposition of a query."""

    def __init__(self, query: ConjunctiveQuery, root: GHDNode) -> None:
        self.query = query
        self.root = root

    def nodes(self) -> list[GHDNode]:
        return self.root.walk()

    def levels(self) -> list[list[GHDNode]]:
        """The nodes by depth, root level first (GYM's round structure)."""
        levels: list[list[GHDNode]] = []
        frontier = [self.root]
        while frontier:
            levels.append(frontier)
            frontier = [c for node in frontier for c in node.children]
        return levels

    @property
    def width(self) -> int:
        """Maximum cover (λ) size over all nodes."""
        return max(len(n.cover) for n in self.nodes())

    @property
    def depth(self) -> int:
        """Edge-depth of the tree (a single node has depth 0)."""

        def depth_of(node: GHDNode) -> int:
            if not node.children:
                return 0
            return 1 + max(depth_of(c) for c in node.children)

        return depth_of(self.root)

    def verify(self) -> bool:
        """Check coverage, running intersection, and cover containment."""
        nodes = self.nodes()
        atom_vars = {a.name: a.var_set() for a in self.query.atoms}

        # (3) each bag is inside the union of its cover atoms' variables.
        for node in nodes:
            union: set[str] = set()
            for name in node.cover:
                if name not in atom_vars:
                    return False
                union |= atom_vars[name]
            if not node.bag <= union:
                return False

        # (1) every atom is covered by some bag.
        for atom in self.query.atoms:
            if not any(atom.var_set() <= node.bag for node in nodes):
                return False

        # (2) running intersection, checked top-down: once a variable
        # leaves the bag on a root-to-leaf path it may not reappear, and
        # the nodes holding it must form one connected component.
        return self._running_intersection()

    def _running_intersection(self) -> bool:
        holders: dict[str, list[GHDNode]] = {}
        for node in self.nodes():
            for v in node.bag:
                holders.setdefault(v, []).append(node)
        parent: dict[int, GHDNode | None] = {id(self.root): None}
        for node in self.nodes():
            for child in node.children:
                parent[id(child)] = node
        for v, nodes in holders.items():
            if len(nodes) == 1:
                continue
            # Connected iff every holder except one has its parent holding v too.
            tops = [n for n in nodes
                    if parent[id(n)] is None or v not in parent[id(n)].bag]
            if len(tops) != 1:
                return False
        return True

    def __repr__(self) -> str:
        return f"GHD(width={self.width}, depth={self.depth}, nodes={len(self.nodes())})"


# -------------------------------------------------------------- constructions


def width1_ghd(query: ConjunctiveQuery, flatten: bool = True) -> GHD:
    """A width-1 GHD (join tree) of an acyclic query, one node per atom.

    With ``flatten=True`` (the default) the tree is greedily re-rooted to
    minimize depth, since GYM's round count is O(depth). Raises
    :class:`DecompositionError` for cyclic queries.
    """
    parent_map = join_tree(query)
    if flatten:
        parent_map = minimize_depth(query, parent_map)
    nodes = {
        a.name: GHDNode(bag=a.var_set(), cover=(a.name,)) for a in query.atoms
    }
    root_name = next(n for n, p in parent_map.items() if p == n)
    for name, parent_name in parent_map.items():
        if name != parent_name:
            nodes[parent_name].children.append(nodes[name])
    ghd = GHD(query, nodes[root_name])
    if not ghd.verify():  # pragma: no cover - GYO guarantees validity
        raise DecompositionError(f"GYO produced an invalid join tree for {query}")
    return ghd


def path_chain_ghd(n: int) -> GHD:
    """Path query, width 1, depth n−1: the natural chain join tree."""
    query = path_query(n)
    root = GHDNode(bag=query.atoms[0].var_set(), cover=(query.atoms[0].name,))
    tip = root
    for atom in query.atoms[1:]:
        child = GHDNode(bag=atom.var_set(), cover=(atom.name,))
        tip.children.append(child)
        tip = child
    return _checked(GHD(query, root))


def path_flat_ghd(n: int) -> GHD:
    """Path query, width ⌈(n+1)/2⌉, depth ≤ 1 (slide 95's w=n/2 shape).

    The root covers every other atom (R1, R3, …) plus Rn, so its bag
    contains all variables; remaining atoms hang off it as leaves.
    """
    query = path_query(n)
    cover_names = [f"R{i}" for i in range(1, n + 1, 2)]
    if f"R{n}" not in cover_names:
        cover_names.append(f"R{n}")
    bag = frozenset(query.variables)
    root = GHDNode(bag=bag, cover=tuple(cover_names))
    for atom in query.atoms:
        if atom.name not in cover_names:
            root.children.append(GHDNode(bag=atom.var_set(), cover=(atom.name,)))
    return _checked(GHD(query, root))


def path_balanced_ghd(n: int) -> GHD:
    """Path query, width ≤ 3, depth O(log n) (slide 95's w=3 shape).

    Recursive construction: the node for atom range [i, j] is covered by
    {R_i, R_mid, R_j}; its children handle the two half-ranges.
    """
    query = path_query(n)

    def build(i: int, j: int) -> GHDNode:
        if j - i + 1 <= 3:
            names = tuple(f"R{t}" for t in range(i, j + 1))
            bag = frozenset().union(*(query.atom(m).var_set() for m in names))
            return GHDNode(bag=bag, cover=names)
        mid = (i + j) // 2
        names = (f"R{i}", f"R{mid}", f"R{j}")
        bag = frozenset().union(*(query.atom(m).var_set() for m in names))
        node = GHDNode(bag=bag, cover=names)
        node.children.append(build(i, mid))
        node.children.append(build(mid, j))
        return node

    return _checked(GHD(query, build(1, n)))


def _checked(ghd: GHD) -> GHD:
    if not ghd.verify():
        raise DecompositionError(
            f"constructed GHD for {ghd.query} violates GHD properties"
        )
    return ghd


def expected_balanced_depth(n: int) -> int:
    """Depth of :func:`path_balanced_ghd` — Θ(log n)."""
    depth = 0
    span = n
    while span > 3:
        span = (span + 1) // 2
        depth += 1
    return depth
