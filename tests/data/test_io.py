"""Tests for CSV I/O."""

import pytest

from repro.data.io import read_csv, write_csv
from repro.data.relation import Relation
from repro.errors import SchemaError


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        r = Relation("R", ["x", "y"], [(1, 2), (3, 4)])
        path = tmp_path / "r.csv"
        write_csv(r, path)
        loaded = read_csv(path)
        assert loaded.name == "r"
        assert loaded.schema.attributes == ("x", "y")
        assert loaded.rows() == [(1, 2), (3, 4)]

    def test_mixed_types(self, tmp_path):
        r = Relation("R", ["k", "v"], [(1, "abc"), (2, 3.5)])
        path = tmp_path / "m.csv"
        write_csv(r, path)
        loaded = read_csv(path)
        assert loaded.rows() == [(1, "abc"), (2, 3.5)]

    def test_headerless(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2\n3,4\n")
        loaded = read_csv(path, header=False)
        assert loaded.schema.attributes == ("c0", "c1")
        assert loaded.rows() == [(1, 2), (3, 4)]

    def test_custom_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x\n1\n")
        assert read_csv(path, name="Orders").name == "Orders"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_write_without_header(self, tmp_path):
        r = Relation("R", ["x"], [(7,)])
        path = tmp_path / "nh.csv"
        write_csv(r, path, header=False)
        assert path.read_text().strip() == "7"

    def test_loaded_relation_joins(self, tmp_path):
        r = Relation("R", ["x", "y"], [(1, 2)])
        s = Relation("S", ["y", "z"], [(2, 3)])
        pr, ps = tmp_path / "r.csv", tmp_path / "s.csv"
        write_csv(r, pr)
        write_csv(s, ps)
        j = read_csv(pr).join(read_csv(ps))
        assert j.rows() == [(1, 2, 3)]


class TestOneConstructorCall:
    def test_a_load_moves_no_token_and_keeps_every_value_type(self, tmp_path):
        rows = [(i, f"s{i}", i + 0.5) for i in range(500)]
        path = tmp_path / "big.csv"
        write_csv(Relation("B", ["i", "s", "f"], rows), path)
        loaded = read_csv(path)
        assert loaded.mutation_token() == 0   # built in one call, not 500 adds
        assert loaded.rows() == rows
        assert [tuple(map(type, row)) for row in loaded.rows()] == [(int, str, float)] * 500
        assert [c.dtype.kind for c in loaded.columns()] == ["i", "O", "O"]
