"""The BENCH file schema (``repro-bench/1``) and its validator.

A BENCH file is a JSON document::

    {
      "schema": "repro-bench/1",
      "machine": {"platform": str, "python": str, "numpy": str,
                  "cpu_count": int,
                  # optional, absent in pre-backend files (== inline):
                  "backend": str, "workers": int},
      "kernels": bool,          # kernels enabled for the experiment runs
      "quick": bool,            # measured at the reduced sizes
      "experiments": [
        {"name": str, "n": int, "p": int, "seconds": float,
         "L_max": int, "rounds": int, "out_size": int}, ...
      ],
      "speedups": [             # kernels on-vs-off pairs
        {"name": str, "n": int, "p": int,
         "seconds_on": float, "seconds_off": float, "speedup": float,
         "L_max": int, "rounds": int,
         "identical": bool,    # on/off stats + output byte-identical
         "oracle_ok": bool}, ...
      ],
      "scaling": [              # optional: backend-scaling sweep
        {"name": str, "n": int, "p": int,
         "backend": str, "workers": int,
         "seconds": float, "speedup": float,   # inline_s / this_s
         "L_max": int, "rounds": int, "out_size": int,
         "identical": bool}, ...  # matches the inline reference exactly
      ],
      "x7": [                   # optional: planner predicted-vs-measured
        {"name": str,           # scenario name
         "strategy": str,       # the candidate executed for this record
         "n": int, "p": int,
         "chosen": bool,        # the cost model picked this candidate
         "predicted_load": float, "measured_load": int,
         "predicted_rounds": int, "measured_rounds": int,
         "ratio": float,        # measured_load / predicted_load
         "seconds": float, "out_size": int}, ...
      ],
      "x8": [                   # optional: concurrent service throughput
        {"name": str,           # arm name, e.g. "clients4" or "split2"
         "clients": int,        # concurrent client threads
         "workers": int,        # service worker threads
         "split": int,          # query split factor (1 = no rewrite)
         "queries": int,        # requests issued across all clients
         "completed": int, "rejected": int,
         "seconds": float,      # wall time of the whole arm
         "queries_per_second": float,
         "cache_hits": int, "cache_misses": int,
         "cache_hit_rate": float,
         "identical": bool}, ...  # every result byte-matched the serial
                                  # baseline (canonical row order)
      ],
      "x9": [                   # optional, BENCH_9.json only: the
                                # resident-vs-snapshot dispatch sweep
                                # (its records also carry two counters of
                                # that retired protocol, left unchecked)
        {"name": str, "n": int, "p": int, "workers": int,
         "queries": int,        # repeated runs through one pool
         "protocol": str,       # "resident" or "snapshot"
         "seconds": float,
         "queue_messages": int, # coordinator->worker round-trips
         "shm_bytes_out": int, "pickle_bytes_out": int,
         "dispatch_bytes_out": int,
         "resident_hits": int,
         "fallback_dispatches": int,
         "dispatch_ratio": float,  # snapshot/resident full-payload messages
         "pickle_ratio": float,    # snapshot/resident pickle_bytes_out
         "identical": bool}, ...   # every run matched the inline reference
      ],
      "x10": [                  # optional, BENCH_10.json only: the
                                # memoization on/off sweep
        {"name": str, "n": int, "p": int,
         "queries": int,        # repeated runs per arm
         "seconds_on": float, "seconds_off": float,
         "speedup": float,      # seconds_off / seconds_on
         "hash_ops_on": int, "hash_ops_off": int,
         "hash_ops_ratio": float,  # hash_ops_off / hash_ops_on (0 when
                                   # the scenario hashes nothing, e.g.
                                   # splitter-based multiround sort)
         "partition_hits": int, "view_hits": int, "bytes_saved": int,
         "identical": bool}, ...   # both arms byte-identical per run
      ]
    }

Validation is hand-rolled (no jsonschema dependency): it returns a flat
list of human-readable error strings, empty when the document conforms.
Unknown keys are ignored. No section has a writer any more; they are
validated so the committed ``BENCH_*.json`` records stay checkable and
diffable.
"""

from __future__ import annotations

from typing import Any

SCHEMA_VERSION = "repro-bench/1"

__all__ = ["SCHEMA_VERSION", "validate_bench"]

_MACHINE_FIELDS: dict[str, type] = {
    "platform": str,
    "python": str,
    "numpy": str,
    "cpu_count": int,
    "backend": str,
    "workers": int,
}

# Optional so files from before the execution-backend layer still
# validate (their absence means inline).
_MACHINE_OPTIONAL = ("backend", "workers")

_EXPERIMENT_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "seconds": (int, float),
    "L_max": (int,),
    "rounds": (int,),
    "out_size": (int,),
}

_SPEEDUP_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "seconds_on": (int, float),
    "seconds_off": (int, float),
    "speedup": (int, float),
    "L_max": (int,),
    "rounds": (int,),
    "identical": (bool,),
    "oracle_ok": (bool,),
}

# A scaling record is an experiment record measured under a named backend.
_SCALING_FIELDS: dict[str, tuple[type, ...]] = {
    **_EXPERIMENT_FIELDS,
    "backend": (str,),
    "workers": (int,),
    "speedup": (int, float),
    "identical": (bool,),
}


_X7_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "strategy": (str,),
    "n": (int,),
    "p": (int,),
    "chosen": (bool,),
    "predicted_load": (int, float),
    "measured_load": (int,),
    "predicted_rounds": (int,),
    "measured_rounds": (int,),
    "ratio": (int, float),
    "seconds": (int, float),
    "out_size": (int,),
}


_X8_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "clients": (int,),
    "workers": (int,),
    "split": (int,),
    "queries": (int,),
    "completed": (int,),
    "rejected": (int,),
    "seconds": (int, float),
    "queries_per_second": (int, float),
    "cache_hits": (int,),
    "cache_misses": (int,),
    "cache_hit_rate": (int, float),
    "identical": (bool,),
}


_X9_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "workers": (int,),
    "queries": (int,),
    "protocol": (str,),
    "seconds": (int, float),
    "queue_messages": (int,),
    "shm_bytes_out": (int,),
    "pickle_bytes_out": (int,),
    "dispatch_bytes_out": (int,),
    "resident_hits": (int,),
    "fallback_dispatches": (int,),
    # Mean outbound bytes per queue message; null (None) when the arm
    # sent no queue message at all — a mean over zero messages is
    # undefined and must not masquerade as "0 bytes".
    "bytes_per_message": (int, float, type(None)),
    "dispatch_ratio": (int, float),
    "pickle_ratio": (int, float),
    "identical": (bool,),
}


_X10_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "queries": (int,),
    "seconds_on": (int, float),
    "seconds_off": (int, float),
    "speedup": (int, float),
    "hash_ops_on": (int,),
    "hash_ops_off": (int,),
    "hash_ops_ratio": (int, float),
    "partition_hits": (int,),
    "view_hits": (int,),
    "bytes_saved": (int,),
    "identical": (bool,),
}


def _check_record(
    record: Any, fields: dict[str, tuple[type, ...]], where: str, errors: list[str]
) -> None:
    if not isinstance(record, dict):
        errors.append(f"{where}: expected an object, got {type(record).__name__}")
        return
    for field, types in fields.items():
        if field not in record:
            errors.append(f"{where}: missing field {field!r}")
            continue
        value = record[field]
        # bool is an int subclass; only accept it where bool is expected.
        if isinstance(value, bool) and bool not in types:
            errors.append(f"{where}.{field}: expected {types[0].__name__}, got bool")
        elif not isinstance(value, types):
            errors.append(
                f"{where}.{field}: expected {types[0].__name__}, "
                f"got {type(value).__name__}"
            )
        elif (
            value is not None
            and not isinstance(value, (str, bool))
            and value < 0
        ):
            errors.append(f"{where}.{field}: must be non-negative, got {value!r}")


# (name, fields, uniqueness key, closed string vocabularies); only
# "experiments" is mandatory, every other section may be absent.
_SECTIONS = (
    ("experiments", _EXPERIMENT_FIELDS, ("name",), {}),
    ("speedups", _SPEEDUP_FIELDS, (), {}),
    ("scaling", _SCALING_FIELDS, (), {"backend": ("inline", "process")}),
    ("x7", _X7_FIELDS, ("name", "strategy"), {}),
    ("x8", _X8_FIELDS, ("name",), {}),
    ("x9", _X9_FIELDS, ("name", "protocol"),
     {"protocol": ("resident", "snapshot")}),
    ("x10", _X10_FIELDS, ("name",), {}),
)


def _check_sections(document: dict[str, Any], errors: list[str]) -> None:
    for name, fields, unique, vocabularies in _SECTIONS:
        required = name == "experiments"
        records = document.get(name, None if required else [])
        if not isinstance(records, list) or (required and not records):
            kind = "a non-empty list" if required else "a list"
            errors.append(f"{name}: expected {kind}")
            continue
        label = unique[0] if len(unique) == 1 else f"({', '.join(unique)})"
        seen: set[tuple[str, ...]] = set()
        for i, record in enumerate(records):
            where = f"{name}[{i}]"
            _check_record(record, fields, where, errors)
            if not isinstance(record, dict):
                continue
            for field, allowed in vocabularies.items():
                value = record.get(field)
                if isinstance(value, str) and value not in allowed:
                    errors.append(
                        f"{where}.{field}: expected "
                        f"{' or '.join(map(repr, allowed))}, got {value!r}"
                    )
            key = tuple(record.get(field) for field in unique)
            # Only well-typed keys are compared; a missing or mistyped
            # key field is already reported by _check_record.
            if key and all(isinstance(part, str) for part in key):
                if key in seen:
                    shown = key[0] if len(key) == 1 else key
                    errors.append(f"{where}: duplicate {label} {shown!r}")
                seen.add(key)


def validate_bench(document: Any) -> list[str]:
    """All schema violations in ``document`` (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return [f"top level: expected an object, got {type(document).__name__}"]
    if document.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema: expected {SCHEMA_VERSION!r}, got {document.get('schema')!r}"
        )
    machine = document.get("machine")
    if not isinstance(machine, dict):
        errors.append("machine: expected an object")
    else:
        for field, typ in _MACHINE_FIELDS.items():
            if field in _MACHINE_OPTIONAL and field not in machine:
                continue
            value = machine.get(field)
            if not isinstance(value, typ) or isinstance(value, bool):
                errors.append(f"machine.{field}: expected {typ.__name__}")
    for flag in ("kernels", "quick"):
        if not isinstance(document.get(flag), bool):
            errors.append(f"{flag}: expected a bool")
    _check_sections(document, errors)
    return errors
