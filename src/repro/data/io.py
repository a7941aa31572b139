"""Loading and saving relations as CSV.

Minimal I/O so downstream users can point the algorithms at their own
data. Values are parsed as ints when possible, then floats, else kept
as strings — good enough for the key/payload tuples the algorithms move.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from repro.data.relation import Relation
from repro.errors import SchemaError


def _parse(token: str) -> Any:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def read_csv(path: str | Path, name: str | None = None,
             header: bool = True) -> Relation:
    """Load a relation from a CSV file.

    With ``header=True`` the first row names the attributes; otherwise
    columns are named ``c0, c1, …``.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise SchemaError(f"{path} is empty; a relation needs a schema")
    if header:
        attributes = rows[0]
        data = rows[1:]
    else:
        attributes = [f"c{i}" for i in range(len(rows[0]))]
        data = rows
    return Relation(name or path.stem, attributes, [tuple(map(_parse, row)) for row in data])


def write_csv(relation: Relation, path: str | Path, header: bool = True) -> None:
    """Write a relation to CSV (attributes as the header row)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(relation.schema.attributes)
        writer.writerows(relation.rows_readonly())
