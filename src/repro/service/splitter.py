"""Query splitting: one conjunctive query → k disjoint mod-based branches.

The trick (larsql's ``PARALLEL_SIMPLE_SOLUTION``: rewrite ``SELECT ...``
into k copies guarded by ``mod(key, k) = i`` and ``UNION ALL`` them) is
sound for conjunctive queries because a join is *linear* in each of its
arguments over bag union: if one atom's relation R is partitioned into
disjoint fragments R_0 ⊎ … ⊎ R_{k-1}, then

    Q(R, S, …) = Q(R_0, S, …) ⊎ … ⊎ Q(R_{k-1}, S, …)

as bags — every output tuple is witnessed by exactly one row of R, and
that row lives in exactly one fragment. :func:`split_relation`
partitions by ``value mod k`` on one attribute (any row lands in
exactly one branch whatever the value distribution), so the rewrite
needs no semantic analysis beyond picking the atom to split.

**Byte-identity guarantee**: bag equality is what the algebra gives;
to make the merged result *byte*-comparable against the unsplit run,
:func:`merge_branches` and :func:`canonical` both order rows by the
same total order (lexicographic on the tuple). The service's contract —
asserted by the concurrency suite and ``serve --check`` — is

    canonical(merge_branches(branch outputs)) == canonical(unsplit output)

down to the exact row list.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.data.relation import Relation, union_all
from repro.errors import QueryError
from repro.kernels.columnar import is_object
from repro.kernels.memo import cached_view, forget
from repro.query.cq import ConjunctiveQuery

__all__ = [
    "canonical",
    "choose_split_atom",
    "merge_branches",
    "split_bindings",
    "split_relation",
]


def split_relation(
    relation: Relation, k: int, attribute: str | None = None
) -> list[Relation]:
    """Partition ``relation`` into k disjoint fragments by ``value mod k``.

    ``attribute`` defaults to the relation's first attribute (larsql
    splits on the leading key column for the same reason: it always
    exists). Each fragment keeps the original schema and shares nothing
    writable, with the branch index appended to the name for
    traceability. An ``object`` column's values split by Python's ``%``
    (on their hash, for a value that is not an ``int``).

    The fragments are a memoized view of ``relation``
    (:func:`repro.kernels.memo.cached_view`): while it is unchanged
    every call returns the *same* fragment objects, so their degree
    views, query plans and routing plans stay hot across split queries.
    They are shared between callers — read only, the contract
    :func:`repro.kernels.memo.align` has; a fragment that was mutated all
    the same is never served again (the next call forgets the parent's
    entries and rebuilds). A ``rows()`` list handed out of a fragment is
    the caller's copy and changes nothing.
    """
    if k <= 0:
        raise QueryError(f"split factor must be positive, got {k}")
    if k == 1:
        return [relation]
    attrs = relation.schema.attributes
    if not attrs:
        raise QueryError("cannot split a zero-arity relation")
    attr = attribute or attrs[0]
    if attr not in attrs:
        raise QueryError(
            f"split attribute {attr!r} not in schema {list(attrs)}"
        )
    index = relation.schema.index(attr)

    def build() -> tuple[list[Relation], list[int]]:
        fragments = _fragments(relation, k, index)
        return fragments, [f.mutation_token() for f in fragments]

    fragments, tokens = cached_view(relation, ("split", k, attr), build)
    if [f.mutation_token() for f in fragments] != tokens:
        # A caller mutated a shared fragment (add/extend move its token):
        # reclaim the parent's entries and split afresh.
        forget(relation)
        fragments, _ = cached_view(relation, ("split", k, attr), build)
    return list(fragments)


def _fragments(relation: Relation, k: int, index: int) -> list[Relation]:
    """The k ``value mod k`` fragments of ``relation`` on column ``index``."""
    cols = relation.columns()
    key = cols[index]
    if is_object(key):
        residue = np.fromiter(
            (v % k if isinstance(v, int) else hash(v) % k for v in key.tolist()),
            dtype=np.int64, count=len(key),
        )
    else:
        residue = key % k          # numpy % matches Python's sign rule
    return [
        Relation.from_columns(
            f"{relation.name}#{branch}", relation.schema, [c[residue == branch] for c in cols]
        )
        for branch in range(k)
    ]


def choose_split_atom(
    query: ConjunctiveQuery, bindings: Mapping[str, Relation]
) -> str:
    """The atom whose relation the rewriter partitions: the largest one.

    Splitting the biggest input balances branch sizes best under the
    mod rule and maximizes the per-branch input reduction the optimizer
    can reprice (ties resolve to atom order for determinism).
    """
    if not query.atoms:
        raise QueryError("cannot split an empty query")
    return max(
        (atom.name for atom in query.atoms),
        key=lambda name: (len(bindings[name]),),
    )


def split_bindings(
    query: ConjunctiveQuery,
    bindings: Mapping[str, Relation],
    k: int,
    atom: str | None = None,
    attribute: str | None = None,
) -> list[dict[str, Relation]]:
    """The k branch relation-maps: one atom partitioned, the rest shared.

    Each returned dict binds every atom of ``query``; branch i holds
    fragment i of the split atom and the *same* relation objects for
    all others (no copies — branches only read, the fragments included:
    :func:`split_relation` shares them across calls).
    """
    split_name = atom or choose_split_atom(query, bindings)
    if all(a.name != split_name for a in query.atoms):
        raise QueryError(
            f"split atom {split_name!r} is not an atom of {query}"
        )
    fragments = split_relation(bindings[split_name], k, attribute=attribute)
    return [
        {
            name: (fragments[i] if name == split_name else rel)
            for name, rel in bindings.items()
        }
        for i in range(len(fragments))
    ]


def canonical(relation: Relation, name: str = "OUT") -> Relation:
    """The relation with rows in the canonical (lexicographic) order.

    The common total order both sides of the byte-identity check are
    normalized to; duplicates are preserved (bag semantics).
    """
    return relation.sorted_by(relation.schema.attributes, name=name)


def merge_branches(outputs: Sequence[Relation], name: str = "OUT") -> Relation:
    """Bag-union branch outputs and normalize to the canonical order."""
    if not outputs:
        raise QueryError("merge_branches needs at least one branch output")
    return canonical(union_all(name, list(outputs)), name=name)
