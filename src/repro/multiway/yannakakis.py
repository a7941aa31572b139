"""Yannakakis' algorithm for acyclic queries (slides 64–77).

Three phases over a width-1 GHD (join tree):

1. **upward semijoins** — leaves to root, each node reduced by its
   children;
2. **downward semijoins** — root to leaves, each child reduced by its
   parent;
3. **join phase** — bottom-up joins of the fully reduced relations.

After the two semijoin sweeps every remaining tuple participates in at
least one output, so intermediate join results never exceed OUT and the
serial running time is O(IN + OUT) (slide 77). This module is the serial
reference; :mod:`repro.multiway.gym` distributes it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.memo import align, bound
from repro.query.cq import ConjunctiveQuery
from repro.query.ghd import GHD, GHDNode, width1_ghd


@dataclass
class YannakakisResult:
    """Output plus the accounting the O(IN+OUT) claim is about."""

    output: Relation
    semijoin_operations: int
    join_operations: int
    intermediate_sizes: list[int] = field(default_factory=list)

    @property
    def max_intermediate(self) -> int:
        return max(self.intermediate_sizes, default=0)


def yannakakis(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    ghd: GHD | None = None,
) -> YannakakisResult:
    """Evaluate an acyclic full CQ in O(IN + OUT) with full reduction.

    ``ghd`` defaults to the GYO join tree; it must be width 1 (one atom
    per node).
    """
    if ghd is None:
        ghd = width1_ghd(query)
    if ghd.width != 1:
        raise QueryError("serial Yannakakis needs a width-1 GHD (join tree)")

    # Working copy: one relation per node, projected to the atom's variables.
    working: dict[int, Relation] = {}
    for node in ghd.nodes():
        name = node.cover[0]
        atom = query.atom(name)
        working[id(node)] = align(atom, bound(relations, name)).project(
            list(atom.variables)
        )

    semijoins = 0

    # Phase 1: upward (children reduce parents), deepest levels first.
    for node in _postorder(ghd.root):
        for child in node.children:
            working[id(node)] = working[id(node)].semijoin(working[id(child)])
            semijoins += 1

    # Phase 2: downward (parents reduce children), top-down.
    for node in _preorder(ghd.root):
        for child in node.children:
            working[id(child)] = working[id(child)].semijoin(working[id(node)])
            semijoins += 1

    # Phase 3: bottom-up joins.
    joins = 0
    intermediates: list[int] = []

    def join_subtree(node: GHDNode) -> Relation:
        nonlocal joins
        result = working[id(node)]
        for child in node.children:
            result = result.join(join_subtree(child))
            joins += 1
            intermediates.append(len(result))
        return result

    full = join_subtree(ghd.root)
    output = full.project(list(query.variables), name="OUT")
    return YannakakisResult(output, semijoins, joins, intermediates)


def _postorder(node: GHDNode) -> list[GHDNode]:
    out: list[GHDNode] = []
    for child in node.children:
        out.extend(_postorder(child))
    out.append(node)
    return out


def _preorder(node: GHDNode) -> list[GHDNode]:
    out = [node]
    for child in node.children:
        out.extend(_preorder(child))
    return out
