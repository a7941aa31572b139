"""DESIGN.md's experiment index must stay in sync with the repository."""

import ast
import dataclasses
import functools
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _files_matching(pattern, tree=ROOT / "src" / "repro"):
    """Python files under ``tree`` whose text matches, relative to it."""
    return sorted(
        str(path.relative_to(tree))
        for path in tree.rglob("*.py")
        if re.search(pattern, path.read_text())
    )


class TestRowsEncapsulationLint:
    """No module outside data/relation.py may touch ``._rows`` or ``._cols``.

    A relation's invariants (its columns are the ground truth, the tuple
    view is derived from them, the mutation token moves with every
    change) live entirely inside :class:`Relation`; a stray ``rel._rows``
    reads a derived cache that may not be built yet, and a stray
    ``rel._cols`` bypasses the one place that freezes what a relation
    holds. CI runs the same check as a grep step; this test makes it fail
    locally first. The rows-footgun test is the one sanctioned exception
    (it *installs* a guard on the slot on purpose) and tests are outside
    the scanned tree anyway.
    """

    def test_no_direct_rows_access_outside_relation(self):
        offenders = []
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            if path.name == "relation.py" and path.parent.name == "data":
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if re.search(r"\._(rows|cols)\b", line):
                    offenders.append(f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}")
        assert not offenders, (
            "direct Relation._rows/_cols access outside data/relation.py "
            "(use rows()/rows_readonly()/columns()):\n" + "\n".join(offenders)
        )


class TestOwnershipLint:
    """A relation owns what it holds, so no cache layer tracks who else
    might: the borrow bit is gone, handing out ``rows()`` is not a
    mutation (the token counts ``add``/``extend`` and nothing else), and
    every array a relation holds is read-only — ``object`` columns too."""

    OPS = [
        "from_columns", "from_chunks", "from_held", "extend", "project", "rename",
        "select_eq", "join", "semijoin", "sorted_by", "union_all",
        "row-primary columns()", "unpickling",
    ]

    @staticmethod
    def _made(how, kind):
        """The relation ``how`` makes, over ``int`` or over ``object`` values
        (its ``b`` column then holds strings)."""
        import pickle

        import numpy as np

        from repro.data.relation import Relation, union_all
        from repro.mpc.server import held
        from tests.holdings import fragment_of

        def b(values):
            return [f"v{v}" for v in values] if kind == "object" else np.asarray(values)

        def source():
            return Relation.from_columns("R", ["a", "b"], [np.arange(6), b(np.arange(6) % 3)])

        def grown(rows):
            rel = source()
            rel.extend(rows)
            rel.add(rows[0])
            return rel

        value = "v1" if kind == "object" else 1
        row = (7, value)
        other = Relation.from_columns("S", ["b", "c"], [b(np.arange(3)), np.arange(3) * 10])
        return {
            "from_columns": source,
            "from_chunks": lambda: Relation.from_chunks(
                "R", ["a", "b"], [[np.arange(3)], [b([0, 1]), b([2])]]),
            # What the local steps build: a relation over a fragment's held
            # columns, here built from rows by the one rule.
            "from_held": lambda: Relation.from_columns(
                "R", ["a", "b"], held(fragment_of([row, row], 2), 2)),
            "extend": lambda: grown([row]),
            "project": lambda: source().project(["b"]),
            "rename": lambda: source().rename({"a": "x"}),
            "select_eq": lambda: source().select_eq("b", value),
            "join": lambda: source().join(other),
            "semijoin": lambda: source().semijoin(other),
            "sorted_by": lambda: source().sorted_by(["b"]),
            "union_all": lambda: union_all("U", [source(), source()]),
            "row-primary columns()": lambda: Relation("T", ["a", "b"], [(1, value), (3, value)]),
            "unpickling": lambda: pickle.loads(pickle.dumps(source())),
        }[how]()

    @pytest.mark.parametrize("how", OPS)
    def test_every_held_array_is_read_only(self, how):
        for kind in ("int", "object"):
            held = self._made(how, kind)._cols
            assert held and any(array.dtype == object for array in held) == (kind == "object")
            assert not any(array.flags.writeable for array in held), kind

    def test_the_borrow_bit_matches_nothing_under_src(self):
        assert _files_matching(r"is_borrowed|_borrowed") == []

    def test_the_slot_is_gone(self):
        from repro.data.relation import Relation

        assert "_borrowed" not in Relation.__slots__

    def test_rows_does_not_touch_the_token(self):
        import inspect

        from repro.data.relation import Relation

        assert "_version" not in inspect.getsource(Relation.rows)


class TestOneFormLint:
    """A relation is its columns: nothing under ``src/repro`` names the
    row-primary form, the value-list columns beside it, or the fused/rows
    payload split of the local steps."""

    RETIRED = (
        r"from_held|held_columns|exact_columns|_colcache|chunk_step|as_rows"
        r"|row_payloads|fused_payloads|is_columnar"
    )

    def test_the_retired_names_match_nothing_under_src(self):
        assert _files_matching(self.RETIRED) == []


class TestRowCallSiteInventoryLint:
    """Tuples are made for callers, not between layers.

    The kernel path keeps a relation columnar from the shuffle's delivery
    to the caller's first ``rows()``; every ``.rows()`` /
    ``rows_readonly()`` call under the five packages below is a place
    that still materialises tuples (the shuffle's own row lists, oracles
    and reference plans). The count may only shrink: a new one has to
    show up here, in review.
    """

    PACKAGES = ("joins", "multiway", "mpc", "service", "kernels")
    CEILING = 7

    def test_row_materialisation_sites_only_shrink(self):
        sites = []
        for package in self.PACKAGES:
            for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
                for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                    if re.search(r"\.rows\(\)|rows_readonly\(\)", line):
                        sites.append(f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}")
        assert len(sites) <= self.CEILING, "\n".join(sites)


class TestOneFragmentLint:
    """A fragment is column blocks, only: one store per server, one buffer
    per round, one sender (``send_columns``), one accessor
    (``Server.take``). The side-car that once rode beside the rows, the row
    senders and the demotion of blocks to rows are gone, and every name
    they needed with them."""

    RETIRED = (
        r"column_cache|_column_buffers|take_side_car|take_with_columns|pick_columns|put_column"
        r"|_row_buffer|send_many|send_rows|def send\(|def broadcast\(|def fragment\("
    )

    def test_the_side_car_names_match_nothing_under_src(self):
        assert _files_matching(self.RETIRED) == []

    def test_one_store_and_one_buffer(self):
        import numpy as np

        from repro.data.relation import Relation
        from repro.joins.cartesian import cartesian_on_cluster
        from repro.mpc.cluster import Cluster
        from repro.mpc.server import ChunkedColumns, Server

        assert Server.__slots__ == ("sid", "storage")
        with Cluster(1).round("r") as rnd:
            per_dest = [name for name, value in vars(rnd).items()
                        if isinstance(value, list) and value and isinstance(value[0], dict)]
        assert per_dest == ["_buffers"]

        # After a round of each rewritten sender, every buffer and every
        # stored fragment is column blocks.
        from repro.matmul import multi_round, rectangular, sql
        from repro.multiway import aggregate, base

        rel = Relation("R", ["k", "v"], [(i % 4, i) for i in range(40)])
        skewed = Relation("T", ["k", "v"], [(0 if i % 2 else i % 4, i) for i in range(40)])
        matrix = np.arange(16.0).reshape(4, 4)
        senders = [
            ("group_by", lambda: aggregate.group_by(rel, ["k"], "v", sum, 3)),
            ("two_phase_group_by",
             lambda: aggregate.two_phase_group_by(rel, ["k"], "v", sum, sum, 3)),
            ("sql_matmul", lambda: sql.sql_matmul(matrix, matrix, 3)),
            ("square_block_matmul", lambda: multi_round.square_block_matmul(matrix, matrix, 8, 2)),
            ("rectangular_block_matmul",
             lambda: rectangular.rectangular_block_matmul(matrix, matrix, 2, 2)),
            ("shuffle_multi_semijoin",  # k = 0 is heavy: its verdict is broadcast
             lambda: base.shuffle_multi_semijoin(skewed, [Relation("K", ["k"], [(0,), (1,)])], 3)),
            ("cartesian_on_cluster", lambda: cartesian_on_cluster(
                Cluster(3), rel, Relation("S", ["w"], [(1,), (2,)]))),
        ]
        seen = []
        real_finish = Cluster._finish_round

        def finish(cluster, rnd):
            seen.extend(buffer for buffers in rnd._buffers for buffer in buffers.values())
            real_finish(cluster, rnd)
            seen.extend(fragment for server in cluster.servers
                        for fragment in server.storage.values())

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Cluster, "_finish_round", finish)
            for name, run in senders:
                before = len(seen)
                run()
                assert len(seen) > before, name
        assert seen and all(type(part) is ChunkedColumns for part in seen)

    def test_nothing_under_src_places_rows(self):
        users = _files_matching(r"\.scatter_rows\(")
        assert all(user.startswith("testing/") for user in users), users


class TestSkewOnePassLint:
    """Skew is handled per atom and per heavy/light pattern, as index
    arithmetic; the per-tuple, per-value bodies live in
    ``repro/testing/skew_reference.py`` as the reference only."""

    FILES = ("joins/heavy.py", "multiway/skewhc.py")

    def test_no_per_tuple_loop_and_no_product_over_values(self):
        for name in self.FILES:
            text = (ROOT / "src" / "repro" / name).read_text()
            assert not re.search(r"for \w*row\w* in|def keep|itertools\.product", text), name

    def test_the_reference_bodies_moved_not_copied(self):
        reference = (ROOT / "src" / "repro" / "testing" / "skew_reference.py").read_text()
        for moved in ("_restrict_atom", "remap"):
            assert f"def {moved}(" in reference
            assert not _files_matching(rf"def {moved}\(", ROOT / "src" / "repro" / "joins")
            assert not _files_matching(rf"def {moved}\(", ROOT / "src" / "repro" / "multiway")


class TestChunkPassLint:
    """The chunk, not the server, is the unit of local work: the cluster
    hands every task one table per fragment — its servers' rows in server
    order, with their row bounds — and each task runs one pass over it and
    returns one table and its bounds; the per-payload bodies of the three
    relational ones live in ``repro/testing/chunk_reference.py`` as the
    reference only."""

    TASKS = {
        "joins/base.py": "join_fragment_chunk",
        "multiway/base.py": "semijoin_filter_chunk",
        "multiway/hypercube.py": "hypercube_eval_chunk",
    }
    ALL_TASKS = {
        **TASKS,
        "matmul/sql.py": ("matmul_partials_chunk", "matmul_sums_chunk"),
        "sorting/psrs.py": "psrs_sort_chunk",
    }

    def _task(self, name, function):
        tree = ast.parse((ROOT / "src" / "repro" / name).read_text())
        [node] = [n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == function]
        return node

    def test_no_relation_is_built_per_payload(self):
        # (Named for the per-payload relations a task once built: now no
        # registered task loops over its servers at all.)
        from repro.exec import tasks

        tasks.resolve("join.fragments")
        registered = {fn.args[0].__name__ for fn in tasks._REGISTRY.values()
                      if isinstance(fn, functools.partial)}  # tests register plain ones
        listed = set()
        for name, functions in self.ALL_TASKS.items():
            for function in (functions,) if isinstance(functions, str) else functions:
                listed.add(function)
                task = self._task(name, function)
                iterables = [ast.unparse(n.iter) for n in ast.walk(task)
                             if isinstance(n, (ast.For, ast.comprehension))]
                assert not [i for i in iterables if re.search(r"bounds|payload|server|range", i)], (
                    function, iterables)
                calls = {ast.unparse(n.func) for n in ast.walk(task) if isinstance(n, ast.Call)}
                assert calls & {"server_column", "served"}, (function, calls)
        assert listed == registered

    def test_the_tag_coding_has_one_definition(self):
        # (Named for the tag column the tasks once stacked and cut: the
        # bounds-to-server conversion is defined once, in the cluster.)
        for pattern, home in (
            (r"def (server_column|row_bounds|_table)\(", "mpc/cluster.py"),
            (r"np\.repeat\(np\.arange\(len\(bounds\)", "mpc/cluster.py"),
            (r"\nSERVER = ", "mpc/cluster.py"),
            (r"def served\(", "joins/base.py"),
        ):
            assert _files_matching(pattern) == [home], pattern
        removed = r"\bstack_tagged\b|\bcut_at_tags\b|\bSERVER_ID\b|def stacked\(|\nTAG = "
        assert _files_matching(removed) == []

    def test_the_reference_bodies_moved_not_copied(self):
        reference = (ROOT / "src" / "repro" / "testing" / "chunk_reference.py").read_text()
        for function in self.TASKS.values():
            assert f"def {function}(" in reference
        users = _files_matching(r"chunk_reference")
        assert all(user.startswith("testing/") for user in users), users

    def test_the_tracer_still_times_what_the_pass_calls(self):
        import inspect

        from perfbench.tracing import TARGETS
        from repro.data.relation import Relation

        for _layer, spec, _mode in TARGETS:
            module, _, attr = spec.partition(":")
            target = importlib.import_module(module)
            for part in attr.split("."):
                target = getattr(target, part)
            assert callable(target), spec
        assert ("kernels.join", "repro.kernels.join:join_indices", "call") in TARGETS
        assert "join_indices(" in inspect.getsource(Relation.join)


class TestOneLocalEvaluatorLint:
    """A HyperCube server has one local evaluator, the left-deep plan of
    ``ConjunctiveQuery.evaluate``: the per-row Generic Join, the switch
    that chose it and the branch that ran it are gone, and nothing
    exports them."""

    def test_there_is_no_wcoj_module(self):
        assert not (ROOT / "src" / "repro" / "multiway" / "wcoj.py").exists()

    def test_no_entry_point_takes_a_local_evaluator(self):
        import inspect

        from repro.multiway.hypercube import evaluate_pools, hypercube_join

        for function in (hypercube_join, evaluate_pools):
            assert "local" not in inspect.signature(function).parameters, function.__name__

    def test_the_eval_task_and_its_reference_do_not_branch(self):
        for name in ("multiway/hypercube.py", "testing/chunk_reference.py"):
            tree = ast.parse((ROOT / "src" / "repro" / name).read_text())
            [task] = [n for n in ast.walk(tree)
                      if isinstance(n, ast.FunctionDef) and n.name == "hypercube_eval_chunk"]
            branches = [n for n in ast.walk(task) if isinstance(n, (ast.If, ast.IfExp, ast.Match))]
            assert not branches, (name, [ast.unparse(n) for n in branches])
            strings = {n.value for n in ast.walk(task)
                       if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            assert not strings & {"plan", "generic"}, name

    def test_multiway_exports_no_generic_join(self):
        import repro.multiway

        assert "generic_join" not in repro.multiway.__all__
        assert not hasattr(repro.multiway, "generic_join")


class TestScalarReferenceLint:
    """The kernels take every value: a key operation is a kernel call with
    nothing behind it to fall back to, the per-row bodies it replaced live
    in ``repro/testing/scalar_reference.py`` as the reference only, and no
    switch selects between the two."""

    ROUTES = (
        ("kernels/memo.py", "route"),
        ("multiway/hypercube.py", "hypercube_join"),
        ("multiway/base.py", "_route_light"),
        ("data/relation.py", "join"),
        ("data/relation.py", "semijoin"),
    )
    PER_ROW = r"\bsend\(|setdefault\(|\.get\(|for row in"
    MOVED = (
        "try_route", "try_route_grid", "route_light", "code_key_columns",
        "join_rows_columnar", "semijoin_mask", "lookup_codes",
    )
    IMPORTS = r"(?m)^\s*(from\s+\S*scalar_reference\s|from\s.*\bimport\b.*\bscalar_reference\b|import\s+\S*scalar_reference)"
    RETIRED = r"kernels_enabled|use_kernels|kernels_flag|hash_destinations"

    @staticmethod
    def _function(name, function):
        tree = ast.parse((ROOT / "src" / "repro" / name).read_text())
        [node] = [n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == function]
        return ast.unparse(node)

    def test_no_per_row_send_or_dict_loop_behind_a_kernel(self):
        for name, function in self.ROUTES:
            assert not re.search(self.PER_ROW, self._function(name, function)), function

    def test_the_reference_bodies_moved_and_only_tests_import_them(self):
        reference = (ROOT / "src" / "repro" / "testing" / "scalar_reference.py").read_text()
        for moved in self.MOVED:
            assert f"def {moved}(" in reference, moved
        users = _files_matching(self.IMPORTS)
        assert all(user.startswith("testing/") for user in users), users
        for tree in ("benchmarks", "perfbench", "examples"):
            assert _files_matching(self.IMPORTS, ROOT / tree) == [], tree
        assert _files_matching(self.IMPORTS, ROOT / "tests")

    def test_the_switch_matches_nothing_under_src(self):
        assert _files_matching(self.RETIRED) == []
        assert not (ROOT / "src" / "repro" / "kernels" / "config.py").exists()


class TestSortColumnsLint:
    """Every sort runs on one (key, position) column pair: the user key runs
    once, on the coordinator, so no per-item key wrapper, per-item router
    or row-keyed ``sorted`` is left, and one splitter search serves all."""

    RETIRED = (
        r"PositionTiebreak|IndexKey|RowKey|_route_by_splitters|tuple_buckets"
        r"|searchsorted_buckets|_as_int64_column|take_rows"
    )

    def test_the_wrappers_match_nothing_under_src(self):
        assert _files_matching(self.RETIRED) == []

    def test_no_sorted_call_in_sorting_takes_a_key(self):
        for path in sorted((ROOT / "src" / "repro" / "sorting").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "sorted":
                    assert not any(kw.arg == "key" for kw in node.keywords), path.name


class TestDegreeViewLint:
    """Every skew decision reads one degree view — ``(distinct key columns,
    counts)`` from ``kernels.memo.degree_view`` — as arrays: no ``Counter``
    under ``src/repro`` but the relation's bag equality and ``degrees`` and
    the testing oracles, and the planner evaluates a query only to size a
    cyclic one (an acyclic OUT is counted over its join tree)."""

    COUNTER = r"(?m)^\s*(from\s+collections\s+import\s.*\bCounter\b|import\s+collections\b)"

    def test_only_the_relation_and_testing_import_counter(self):
        users = [f for f in _files_matching(self.COUNTER) if not f.startswith("testing/")]
        assert users == ["data/relation.py"]

    def test_the_counter_builders_are_gone(self):
        assert _files_matching(r"\b(key_degrees|value_degrees)\b") == []

    def test_the_planner_evaluates_only_in_the_cyclic_branch_of_exact_out(self):
        planner = ROOT / "src" / "repro" / "planner"
        assert _files_matching(r"\.evaluate\(", planner) == ["statistics.py"]
        assert (planner / "statistics.py").read_text().count(".evaluate(") == 1
        tree = ast.parse((planner / "statistics.py").read_text())
        [exact_out] = [n for n in ast.walk(tree)
                       if isinstance(n, ast.FunctionDef) and n.name == "_exact_out"]
        [cyclic] = [n for n in ast.walk(exact_out) if isinstance(n, ast.ExceptHandler)]
        assert ast.unparse(cyclic.type) == "DecompositionError"
        assert ".evaluate(" in ast.unparse(cyclic)


class TestOneProbePathLint:
    """The equality kernels probe one table over their codes' slots
    (``kernels.join.slots``) and never search the sorted codes. A splitter
    is an order, not a key code: ``kernels/splitters.py`` keeps its search."""

    def test_the_join_kernels_do_not_search(self):
        kernels = ROOT / "src" / "repro" / "kernels"
        assert "searchsorted" not in (kernels / "join.py").read_text()
        assert "searchsorted" in (kernels / "splitters.py").read_text()


class TestGateInventoryLint:
    """The set of user-settable path gates is closed.

    Every ``REPRO_*`` variable and every in-process override multiplies
    the configurations that must stay byte-identical; a new one has to
    show up here, in review, instead of arriving unnoticed.
    """

    GATES = {"REPRO_BACKEND", "REPRO_WORKERS"}
    RETIRED = {
        "use_protocol", "protocol_name", "use_shm_rows", "shm_rows_enabled",
        "transport_name", "resident_cache_bytes", "use_memo", "set_memo",
        "memo_enabled", "set_kernels", "use_kernels", "kernels_enabled",
    }

    def test_env_gates_are_exactly_the_three(self):
        found = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert found == self.GATES

    def test_retired_overrides_are_not_exported(self):
        import repro.exec
        import repro.kernels.memo

        assert not self.RETIRED & set(repro.exec.__all__)
        assert not self.RETIRED & set(dir(repro.exec))
        assert not self.RETIRED & set(dir(repro.kernels.memo))
        assert not self.RETIRED & set(repro.kernels.__all__)


class TestSignatureInventoryLint:
    """A run concern is set in one place, not threaded through signatures.

    Auditing is ``audited()`` / ``Cluster(audit=)``, the backend is
    ``use_backend``, and an algorithm's output relation has one name; a
    parameter that re-spells any of them is one more configuration the
    byte-identity contract must hold under.
    """

    ALGORITHM_PACKAGES = ("joins", "multiway", "sorting", "matmul")

    def test_algorithms_take_no_audit_or_output_name(self):
        offenders = []
        for package in self.ALGORITHM_PACKAGES:
            for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    args = node.args
                    names = {
                        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                    }
                    for name in sorted(names & {"audit", "output_name"}):
                        offenders.append(
                            f"{path.relative_to(ROOT)}:{node.lineno} "
                            f"{node.name}({name}=)"
                        )
        assert not offenders, "\n".join(offenders)

    def test_engine_and_service_take_no_kernels_or_backend(self):
        import inspect

        from repro.engine import Engine
        from repro.service import QueryService

        for cls in (Engine, QueryService):
            parameters = set(inspect.signature(cls.__init__).parameters)
            assert not parameters & {"kernels", "backend"}, cls.__name__


class TestAmbientInventoryLint:
    """Ambient switches are ``ContextVar``s; ``src/`` rebinds no module global.

    A ``global`` statement is a process-wide switch: it leaks one thread's
    ``with`` block into every other thread's clusters and is left stuck
    by an overlapping enter/exit.
    """

    def test_no_global_statement_under_src(self):
        assert _files_matching(r"(?m)^\s*global ") == []


class TestCacheInventoryLint:
    """One LRU implementation, one atom-alignment check, both in kernels/memo.py.

    Every hand-rolled recency bump or eviction scan is another place for
    the races PR 8 fixed; every copy of the attribute check is another
    wording of the same error. New ones have to show up here.
    """

    LRU_IDIOMS = r"move_to_end|popitem\(last=False\)|pop\(next\(iter\("

    def test_lru_bookkeeping_lives_only_in_memo(self):
        assert _files_matching(self.LRU_IDIOMS) == ["kernels/memo.py"]

    def test_alignment_error_has_one_source(self):
        assert _files_matching(r"do not match") == ["kernels/memo.py"]

    def test_linprog_has_one_call_site(self):
        """Every LP goes through the value-keyed memo of ``query/lp.py``."""
        assert _files_matching(r"linprog") == ["query/lp.py"]

    def test_the_on_read_record_has_one_definition(self):
        assert _files_matching(r"(?m)^class (OnRead|Later)\b") == ["kernels/memo.py"]
        shares = (ROOT / "src" / "repro" / "query" / "shares.py").read_text()
        assert "__getattr__" not in shares and "object.__new__" not in shares


class TestOneHashKernelLint:
    """Every row hash is counted where it is computed: ``kernels/partition.py``.

    ``hashing.py`` defines the bucket kernels and ``kernels/__init__.py``
    re-exports them; a route anywhere else that called them would hash
    outside ``MemoStats.hash_ops`` (``tests/kernels/test_hash_recount.py``).
    The benchmarks and examples route through the same kernels.
    """

    PATTERN = r"bucket_value_column|bucket_tuple_columns"

    def test_only_the_partition_kernels_call_the_bucket_kernels(self):
        assert _files_matching(self.PATTERN) == [
            "kernels/__init__.py", "kernels/hashing.py", "kernels/partition.py",
        ]

    @pytest.mark.parametrize("tree", ["benchmarks", "examples"])
    def test_no_benchmark_or_example_calls_the_bucket_kernels(self, tree):
        assert _files_matching(self.PATTERN, ROOT / tree) == []


class TestDispatchInventoryLint:
    """One module decides and dispatches: ``planner/optimizer.py``.

    ``planner/two_way.py`` and ``planner/multiway.py`` are faces of
    ``plan_query``/``execute_strategy``; a runner named in either is a
    second dispatch table waiting to disagree with the first.
    """

    RUNNERS = (
        r"broadcast_join|parallel_hash_join|skew_join|cartesian_product"
        r"|hypercube_join|skewhc_join|\bgym\("
    )

    def test_only_the_optimizer_names_an_algorithm_runner(self):
        planner = ROOT / "src" / "repro" / "planner"
        assert _files_matching(self.RUNNERS, planner) == ["optimizer.py"]


class TestLedgerInventoryLint:
    """Every counter ledger is a ``CounterStats`` that lists all its counters.

    ``merged``/``snapshot``/``delta`` walk ``_COUNTERS``; an additive
    field missing from it is silently dropped from all three.
    """

    # A point-in-time read of LRU.counters(), never merged or diffed.
    EXEMPT = {"CacheStats"}

    @staticmethod
    def _additive(cls):
        return tuple(
            f.name for f in dataclasses.fields(cls)
            if f.type in ("int", "float") and f.default == 0
        )

    def test_stats_dataclasses_are_counterstats(self):
        from repro.mpc.stats import CounterStats

        seen = []
        for package in ("mpc", "service"):
            for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
                module = importlib.import_module(f"repro.{package}.{path.stem}")
                for name, cls in vars(module).items():
                    if not (name.endswith("Stats") and dataclasses.is_dataclass(cls)
                            and cls.__module__ == module.__name__):
                        continue
                    additive = self._additive(cls)
                    if len(additive) > 1 and name not in self.EXEMPT:
                        assert issubclass(cls, CounterStats), name
                        assert cls._COUNTERS == additive, name
                        seen.append(name)
        assert sorted(seen) == [
            "ExecStats", "FaultStats", "MemoStats", "ServiceStats", "TenantStats",
        ]

    def test_dispatch_stats_fold_into_exec_stats(self):
        """``ExecStats.add(dispatch)`` reads each counter by name and
        counts a missing one as zero — a renamed field would vanish."""
        from repro.exec.pool import DispatchStats
        from repro.mpc.stats import ExecStats

        names = {f.name for f in dataclasses.fields(DispatchStats)}
        assert names <= set(ExecStats._COUNTERS)


class TestOneClusterPerQueryLint:
    """A query runs on one cluster: every entry point builds exactly one
    ``Cluster`` per call, its steps and pools run on it, and its
    ``RunStats`` is that cluster's own — so nothing merges stats by hand.
    The skew oracle (``repro/testing/skew_reference.py``) keeps a short
    merge loop of its own, imported by nothing under ``src/repro``."""

    RETIRED = (
        r"combine_sequential|combine_parallel|_with_ledgers|verify_partition"
        r"|verify_combined|def merged\b|\.merged\("
    )

    def test_no_module_defines_or_imports_a_combiner(self):
        assert _files_matching(self.RETIRED) == []

    @staticmethod
    def _count_clusters(monkeypatch):
        from repro.mpc.cluster import Cluster

        built = []
        real_init = Cluster.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Cluster, "__init__", counting_init)
        return built

    def test_every_entry_point_builds_one_cluster_per_call(self, monkeypatch):
        from repro.testing.differential import ALGORITHMS, generate_instances

        assert len(ALGORITHMS) == 16
        built = self._count_clusters(monkeypatch)
        instances = generate_instances(16, seed=5)
        seen = set()
        for case in ALGORITHMS:
            for instance in instances:
                if case.applies(instance):
                    built.clear()
                    case.run(instance, instance.seed)
                    assert len(built) == 1, (case.name, instance.label, len(built))
                    seen.add(case.name)
        assert seen == {case.name for case in ALGORITHMS}

    def test_the_pooled_plans_build_one_cluster_per_call(self, monkeypatch):
        from repro.data.relation import Relation
        from repro.joins.heavy import heavy_value_products
        from repro.multiway.base import shuffle_join, shuffle_multi_semijoin
        from repro.multiway.semijoin import triangle_hl_semijoin, two_path_semijoin_plan

        r = Relation("R", ["x", "y"], [(i % 7, (i * 3) % 8) for i in range(40)])
        s = Relation("S", ["y", "z"], [(i % 8, 0 if i % 4 else 1 + i % 3) for i in range(40)])
        t = Relation("T", ["z", "x"], [(0 if i % 3 else 1 + i % 5, i % 7) for i in range(40)])
        unary = (Relation("A", ["x"], [(i % 6,) for i in range(20)]),
                 Relation("B", ["x", "y"], [(i % 9, (i * 5) % 7) for i in range(45)]),
                 Relation("C", ["y"], [(i % 4,) for i in range(12)]))
        built = self._count_clusters(monkeypatch)
        calls = {
            "triangle_hl_semijoin": lambda p: triangle_hl_semijoin(r, s, t, p),
            "two_path_semijoin_plan": lambda p: two_path_semijoin_plan(*unary, p),
            "heavy_value_products": lambda p: heavy_value_products(r, s, ("y",), [(0,), (1,)], p),
            "shuffle_join": lambda p: shuffle_join(r, s, p),
            "shuffle_multi_semijoin": lambda p: shuffle_multi_semijoin(r, [s], p),
        }
        for name, call in calls.items():
            for p in (1, 3, 8):
                built.clear()
                call(p)
                assert len(built) == 1, (name, p, len(built))


class TestOneLocalStepLint:
    """Every per-server computation is one ``Cluster`` call.

    ``Cluster.compute`` (and its batch form ``compute_pools``) is the only
    code that takes fragments into per-server payloads and hands them to
    the backend; a second caller of the backend's map is a second local
    step path, and the retired names of the old ones must not come back.
    """

    def test_only_the_cluster_calls_the_backend_map(self):
        # exec/base.py defines the map (ProcessBackend.map_payloads calls its batch form).
        assert _files_matching(r"\bmap_payloads\b|\bmap_payload_batch\b") == [
            "exec/base.py", "mpc/cluster.py",
        ]

    def test_no_module_names_a_retired_local_step(self):
        retired = r"map_servers|inline_local_join|distributed_local_join|_local_joins"
        assert _files_matching(retired) == []


class TestWireInventoryLint:
    """The process backend has one wire: a frame per worker over a pipe.
    Queues (and their feeder threads), the liveness poll, row packing,
    the warning about the path that turned out faster and the resident
    block protocol (content tokens, mirrors, worker caches, epochs) are
    gone, and what decides between frame and segment is one measured
    constant."""

    RETIRED = (
        r"multiprocessing\.Queue|context\.Queue\(|queue_module|_POLL_SECONDS"
        r"|_pack_rows|_RowsRef|_CachedRowsRef|_MIN_ROW_BLOCK|_MIN_RESIDENT_BYTES"
        r"|fallback_rows|FallbackHotPathWarning|_HOT_FALLBACK_ROWS|_warn_hot_fallback"
        r"|_block_token|MirrorCache|BlockCache|invalidate_resident|_RESIDENT_BYTES"
        r"|sync_epoch|snapshot_dispatches|resident_bytes_saved"
    )

    def test_the_retired_names_match_nothing_under_src(self):
        assert _files_matching(self.RETIRED) == []

    def test_shm_has_one_size_threshold(self):
        text = (ROOT / "src" / "repro" / "exec" / "shm.py").read_text()
        assert re.findall(r"^_[A-Z_]*(?:BYTES|BLOCK|ROWS|MIN|MAX)[A-Z_]* =", text, re.M) == [
            "_MIN_SEGMENT_BYTES ="
        ]

    def test_the_tracer_still_times_the_encode_entry_points(self):
        # TestChunkPassLint resolves every target; this pins that the
        # frame's encode/decode are still the functions exec.encode times.
        from perfbench.tracing import TARGETS

        assert {spec for _, spec, _ in TARGETS if spec.startswith("repro.exec")} == {
            "repro.exec.base:ProcessBackend.map_payloads",
            "repro.exec.base:ProcessBackend.map_payload_batch",
            "repro.exec.shm:encode_payload",
            "repro.exec.shm:decode_owned",
        }


class TestClockInventoryLint:
    """Wall time is measured by ``perfbench/``; ``src/`` reads a clock
    only where a seconds figure is part of a public result."""

    CLOCKS = r"perf_counter|time\.time\(|process_time\(|monotonic\("

    def test_src_reads_a_clock_in_three_places(self):
        assert _files_matching(self.CLOCKS) == [
            "exec/pool.py",       # ExecStats.worker_seconds
            "service/cli.py",     # the `serve` load report
            "service/service.py",  # ServiceResult.seconds
        ]

    def test_table_benches_read_no_clock(self):
        assert _files_matching(self.CLOCKS, ROOT / "benchmarks") == []


class TestBenchImportInventoryLint:
    """``repro.bench`` is a leaf: only its own tests import it."""

    def test_nothing_shipped_imports_repro_bench(self):
        inside = [f for f in _files_matching(r"repro\.bench")
                  if not f.startswith("bench/")]
        assert inside == []
        for tree in ("benchmarks", "perfbench", "examples"):
            assert _files_matching(r"repro\.bench", ROOT / tree) == [], tree


class TestExperimentIndex:
    def test_every_indexed_bench_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert referenced, "DESIGN.md lists no bench targets"
        for name in referenced:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_bench_is_indexed_or_support(self):
        design = (ROOT / "DESIGN.md").read_text()
        for path in (ROOT / "benchmarks").glob("*.py"):
            if path.name == "common.py":
                continue
            assert path.name in design, f"{path.name} missing from DESIGN.md"

    def test_cli_covers_all_table_benches(self):
        from repro.__main__ import _EXPERIMENTS

        modules = set(_EXPERIMENTS.values())
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.stem in modules, f"{path.stem} not runnable via CLI"

    def test_experiments_md_covers_all_ids(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for experiment_id in ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
                              "T9", "T10", "T11", "F1", "F2", "F3", "F4", "F5",
                              "F6", "F7", "X1", "X2"]:
            assert f"## {experiment_id} " in text, experiment_id

    def test_design_mentions_all_packages(self):
        design = (ROOT / "DESIGN.md").read_text()
        for package in ["repro.data", "repro.mpc", "repro.query", "repro.joins",
                        "repro.multiway", "repro.sorting", "repro.matmul",
                        "repro.theory", "repro.planner"]:
            assert package in design, package
