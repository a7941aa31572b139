"""The naive reference agrees with repro's oracle on small inputs."""

import numpy as np

from perfbench import datagen, reference


def test_join_by_hand():
    r = (("x", "y"), [np.array([1, 2, 3]), np.array([10, 10, 20])])
    s = (("y", "z"), [np.array([10, 20, 20]), np.array([7, 8, 9])])
    got = reference.join([r, s], ("x", "y", "z"))
    assert got == {(1, 10, 7): 1, (2, 10, 7): 1, (3, 20, 8): 1, (3, 20, 9): 1}
    assert reference.join([r, s], ("z", "x"))[(9, 3)] == 1


def test_join_keeps_duplicates():
    r = (("x",), [np.array([1, 1])])
    s = (("x",), [np.array([1, 1, 1])])
    assert reference.join([r, s], ("x",)) == {(1,): 6}


def test_semijoin_needs_every_reducer():
    target = (("x", "y"), [np.array([1, 2, 3]), np.array([5, 6, 7])])
    red_a = (("y", "q"), [np.array([5, 6]), np.array([0, 0])])
    red_b = (("y", "q"), [np.array([6, 7]), np.array([0, 0])])
    assert reference.semijoin(target, [red_a, red_b]) == {(2, 6): 1}


def test_reference_matches_the_repro_oracle_on_small_slots():
    from repro import Relation, parse_query
    from repro.testing.oracle import oracle_join

    for klass in datagen.ENGINE_CLASSES:
        op = datagen.make_op(klass, 300, 0, np.random.default_rng(5))
        cq = parse_query(datagen.query_text(klass))
        bindings = {
            name: Relation.from_columns(name, attrs, cols)
            for name, (attrs, cols) in op.relations.items()
        }
        expected = oracle_join(cq, bindings)
        atoms = [op.relations[atom.name] for atom in cq.atoms]
        got = reference.join(atoms, expected.schema.attributes)
        assert got == reference.bag(expected.rows_readonly()), klass
        assert sum(got.values()) > 0, klass


def test_seed_changes_the_order_but_not_the_multiset():
    for klass in datagen.CLASSES:
        a = datagen.make_op(klass, 600, 1, np.random.default_rng(1))
        b = datagen.make_op(klass, 600, 1, np.random.default_rng(2))
        again = datagen.make_op(klass, 600, 1, np.random.default_rng(1))
        if klass == "psrs":
            assert a.items != b.items and sorted(a.items) == sorted(b.items)
            assert a.items == again.items
        elif klass == "matmul":          # nothing to reorder in a matrix
            assert np.array_equal(a.matrices[0], b.matrices[0])
            assert a.block * 4 == a.matrices[0].shape[0]
        else:
            for name, (attrs, cols) in a.relations.items():
                other, same = b.relations[name][1], again.relations[name][1]
                assert any(not np.array_equal(c, o) for c, o in zip(cols, other))
                assert all(np.array_equal(c, o) for c, o in zip(cols, same))
                assert reference.bag(zip(*cols)) == reference.bag(zip(*other))
