"""BENCH document schema: the committed baseline and synthetic violations."""

import json
import pathlib

import pytest

from repro.bench.schema import SCHEMA_VERSION, validate_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "BENCH_3.json"


def minimal_document():
    return {
        "schema": SCHEMA_VERSION,
        "machine": {
            "platform": "linux", "python": "3.12", "numpy": "2.0",
            "cpu_count": 8,
        },
        "kernels": True,
        "quick": False,
        "experiments": [
            {"name": "join", "n": 100, "p": 4, "seconds": 0.5,
             "L_max": 25, "rounds": 2, "out_size": 10},
        ],
        "speedups": [
            {"name": "join", "n": 100, "p": 4, "seconds_on": 0.1,
             "seconds_off": 1.0, "speedup": 10.0, "L_max": 25, "rounds": 2,
             "identical": True, "oracle_ok": True},
        ],
    }


class TestCommittedBaseline:
    def test_baseline_exists_and_validates(self):
        document = json.loads(BASELINE.read_text())
        assert validate_bench(document) == []

    def test_baseline_meets_speedup_acceptance(self):
        # The PR's acceptance bar: at least one recorded speedup pair at
        # n >= 1e5 with >= 10x, identical model costs, and a passing oracle.
        document = json.loads(BASELINE.read_text())
        assert any(
            s["n"] >= 100_000 and s["speedup"] >= 10.0
            and s["identical"] and s["oracle_ok"]
            for s in document["speedups"]
        ), [
            (s["name"], s["speedup"]) for s in document["speedups"]
        ]


class TestValidateBench:
    def test_minimal_document_valid(self):
        assert validate_bench(minimal_document()) == []

    def test_not_a_mapping(self):
        assert validate_bench([]) != []
        assert validate_bench(None) != []

    def test_wrong_schema_version(self):
        document = minimal_document()
        document["schema"] = "repro-bench/0"
        assert any("schema" in e for e in validate_bench(document))

    @pytest.mark.parametrize("field", ["machine", "kernels", "experiments"])
    def test_missing_top_level_field(self, field):
        document = minimal_document()
        del document[field]
        assert any(field in e for e in validate_bench(document))

    def test_empty_experiments_rejected(self):
        document = minimal_document()
        document["experiments"] = []
        assert validate_bench(document) != []

    def test_duplicate_experiment_names(self):
        document = minimal_document()
        document["experiments"] *= 2
        assert any("duplicate" in e for e in validate_bench(document))

    @pytest.mark.parametrize("field,bad", [
        ("seconds", "fast"), ("L_max", 2.5), ("rounds", -1), ("n", True),
    ])
    def test_bad_experiment_field(self, field, bad):
        document = minimal_document()
        document["experiments"][0][field] = bad
        assert validate_bench(document) != []

    def test_missing_experiment_field(self):
        document = minimal_document()
        del document["experiments"][0]["L_max"]
        assert any("L_max" in e for e in validate_bench(document))

    def test_bool_is_not_an_int(self):
        # bool is an int subclass; the schema must still reject it where
        # a count is expected (True would silently mean n=1).
        document = minimal_document()
        document["experiments"][0]["rounds"] = True
        assert validate_bench(document) != []

    def test_speedup_fields_checked(self):
        document = minimal_document()
        document["speedups"][0]["identical"] = "yes"
        assert validate_bench(document) != []
        document = minimal_document()
        del document["speedups"][0]["speedup"]
        assert validate_bench(document) != []

    def test_speedups_optional(self):
        document = minimal_document()
        del document["speedups"]
        assert validate_bench(document) == []


class TestScalingSection:
    def _scaling_record(self, **overrides):
        record = {
            "name": "hash_join_uniform", "n": 1000, "p": 8,
            "backend": "process", "workers": 4,
            "seconds": 0.5, "speedup": 2.0, "L_max": 100, "rounds": 1,
            "out_size": 50, "identical": True,
        }
        record.update(overrides)
        return record

    def test_valid_scaling_section(self):
        doc = minimal_document()
        doc["scaling"] = [self._scaling_record()]
        assert validate_bench(doc) == []

    def test_scaling_is_optional(self):
        assert validate_bench(minimal_document()) == []

    def test_missing_field_reported(self):
        doc = minimal_document()
        record = self._scaling_record()
        del record["workers"]
        doc["scaling"] = [record]
        assert any("workers" in e for e in validate_bench(doc))

    def test_unknown_backend_rejected(self):
        doc = minimal_document()
        doc["scaling"] = [self._scaling_record(backend="threads")]
        assert any("backend" in e for e in validate_bench(doc))

    def test_machine_backend_fields_validated_when_present(self):
        doc = minimal_document()
        doc["machine"]["backend"] = 42
        assert any("machine.backend" in e for e in validate_bench(doc))


class TestX7Section:
    """The planner predicted-vs-measured sweep (``bench --x7``)."""

    def _x7_record(self, **overrides):
        record = {
            "name": "two_way_zipf", "strategy": "skew", "n": 6000, "p": 16,
            "chosen": True, "predicted_load": 1357.8, "measured_load": 2282,
            "predicted_rounds": 1, "measured_rounds": 1, "ratio": 1.68,
            "seconds": 3.2, "out_size": 120,
        }
        record.update(overrides)
        return record

    def test_valid_x7_section(self):
        doc = minimal_document()
        doc["x7"] = [self._x7_record()]
        assert validate_bench(doc) == []

    def test_x7_is_optional(self):
        assert validate_bench(minimal_document()) == []

    def test_x7_must_be_a_list(self):
        doc = minimal_document()
        doc["x7"] = {"name": "two_way_zipf"}
        assert any("x7" in e for e in validate_bench(doc))

    def test_missing_field_reported(self):
        doc = minimal_document()
        record = self._x7_record()
        del record["predicted_load"]
        doc["x7"] = [record]
        assert any("predicted_load" in e for e in validate_bench(doc))

    def test_negative_measurement_rejected(self):
        doc = minimal_document()
        doc["x7"] = [self._x7_record(measured_load=-1)]
        assert any("measured_load" in e for e in validate_bench(doc))

    def test_chosen_must_be_bool(self):
        doc = minimal_document()
        doc["x7"] = [self._x7_record(chosen=1)]
        assert any("chosen" in e for e in validate_bench(doc))

    def test_duplicate_scenario_strategy_pair_rejected(self):
        doc = minimal_document()
        doc["x7"] = [self._x7_record(), self._x7_record(ratio=1.1)]
        assert any("duplicate" in e for e in validate_bench(doc))

    def test_same_scenario_different_strategy_allowed(self):
        doc = minimal_document()
        doc["x7"] = [
            self._x7_record(),
            self._x7_record(strategy="hash", chosen=False),
        ]
        assert validate_bench(doc) == []


class TestCommittedX7Baseline:
    """BENCH_7.json is the planner PR's committed artifact."""

    BASELINE_7 = REPO_ROOT / "BENCH_7.json"

    def test_baseline_exists_and_validates(self):
        document = json.loads(self.BASELINE_7.read_text())
        assert validate_bench(document) == []
        assert document["x7"], "x7 section must be non-empty"

    def test_no_strategy_exceeds_twice_its_prediction(self):
        # The PR's acceptance bar: measured load never exceeds 2x the
        # planner's prediction at the committed seeds.
        document = json.loads(self.BASELINE_7.read_text())
        offenders = [
            (r["name"], r["strategy"], r["ratio"])
            for r in document["x7"] if r["ratio"] > 2.0
        ]
        assert not offenders, offenders

    def test_every_scenario_has_exactly_one_chosen_strategy(self):
        document = json.loads(self.BASELINE_7.read_text())
        by_scenario = {}
        for record in document["x7"]:
            by_scenario.setdefault(record["name"], []).append(record["chosen"])
        for name, flags in by_scenario.items():
            assert sum(flags) == 1, (name, flags)


class TestX9Section:
    @staticmethod
    def _x9_record(**overrides):
        record = {
            "name": "hash_join_uniform", "n": 1000, "p": 8, "workers": 2,
            "queries": 8, "protocol": "resident", "seconds": 0.5,
            "queue_messages": 16, "snapshot_dispatches": 2,
            "shm_bytes_out": 4096, "pickle_bytes_out": 512,
            "dispatch_bytes_out": 4608, "resident_hits": 14,
            "resident_bytes_saved": 40_000, "fallback_dispatches": 0,
            "bytes_per_message": 288.0,
            "dispatch_ratio": 8.0, "pickle_ratio": 120.0, "identical": True,
        }
        record.update(overrides)
        return record

    def test_valid_x9_section(self):
        doc = minimal_document()
        doc["x9"] = [
            self._x9_record(),
            self._x9_record(protocol="snapshot", snapshot_dispatches=16),
        ]
        assert validate_bench(doc) == []

    def test_x9_must_be_a_list(self):
        doc = minimal_document()
        doc["x9"] = {"name": "oops"}
        assert any("x9" in e for e in validate_bench(doc))

    def test_x9_missing_field_rejected(self):
        doc = minimal_document()
        record = self._x9_record()
        del record["queue_messages"]
        doc["x9"] = [record]
        assert any("queue_messages" in e for e in validate_bench(doc))

    def test_x9_unknown_protocol_rejected(self):
        doc = minimal_document()
        doc["x9"] = [self._x9_record(protocol="telepathy")]
        assert any("protocol" in e for e in validate_bench(doc))

    def test_x9_duplicate_arm_rejected(self):
        doc = minimal_document()
        doc["x9"] = [self._x9_record(), self._x9_record()]
        assert any("duplicate" in e for e in validate_bench(doc))

    def test_x9_same_workload_both_protocols_allowed(self):
        doc = minimal_document()
        doc["x9"] = [
            self._x9_record(),
            self._x9_record(protocol="snapshot"),
        ]
        assert validate_bench(doc) == []


class TestCommittedX9Baseline:
    """BENCH_9.json is the dispatch-protocol PR's committed artifact."""

    BASELINE_9 = REPO_ROOT / "BENCH_9.json"

    def test_baseline_exists_and_validates(self):
        document = json.loads(self.BASELINE_9.read_text())
        assert validate_bench(document) == []
        assert document["x9"], "x9 section must be non-empty"

    def test_protocol_overhead_drops_at_least_5x(self):
        # The PR's acceptance bar: resident dispatch cuts both the
        # full-payload dispatch count and the pickled dispatch bytes by
        # at least 5x against the snapshot protocol, byte-identically.
        document = json.loads(self.BASELINE_9.read_text())
        resident = [r for r in document["x9"] if r["protocol"] == "resident"]
        assert resident, "no resident-arm records"
        for record in document["x9"]:
            assert record["identical"], record["name"]
        offenders = [
            (r["name"], r["dispatch_ratio"], r["pickle_ratio"])
            for r in resident
            if r["dispatch_ratio"] < 5.0 or r["pickle_ratio"] < 5.0
        ]
        assert not offenders, offenders

    def test_both_arms_present_per_workload(self):
        document = json.loads(self.BASELINE_9.read_text())
        by_workload = {}
        for record in document["x9"]:
            by_workload.setdefault(record["name"], set()).add(record["protocol"])
        for name, protocols in by_workload.items():
            assert protocols == {"resident", "snapshot"}, (name, protocols)


class TestX10Section:
    @staticmethod
    def _x10_record(**overrides):
        record = {
            "name": "semijoin_multi", "n": 60_000, "p": 8, "queries": 8,
            "seconds_on": 1.5, "seconds_off": 3.0, "speedup": 2.0,
            "hash_ops_on": 100_000, "hash_ops_off": 800_000,
            "hash_ops_ratio": 8.0, "partition_hits": 28, "view_hits": 28,
            "bytes_saved": 5_000_000, "identical": True,
        }
        record.update(overrides)
        return record

    def test_valid_x10_section(self):
        doc = minimal_document()
        doc["x10"] = [
            self._x10_record(),
            self._x10_record(name="multiround_sort", hash_ops_ratio=0.0,
                             hash_ops_off=0),
        ]
        assert validate_bench(doc) == []

    def test_x10_must_be_a_list(self):
        doc = minimal_document()
        doc["x10"] = {"name": "oops"}
        assert any("x10" in e for e in validate_bench(doc))

    def test_x10_missing_field_rejected(self):
        doc = minimal_document()
        record = self._x10_record()
        del record["hash_ops_ratio"]
        doc["x10"] = [record]
        assert any("hash_ops_ratio" in e for e in validate_bench(doc))

    def test_x10_duplicate_scenario_rejected(self):
        doc = minimal_document()
        doc["x10"] = [self._x10_record(), self._x10_record(speedup=1.1)]
        assert any("duplicate" in e for e in validate_bench(doc))

    def test_x10_negative_measurement_rejected(self):
        doc = minimal_document()
        doc["x10"] = [self._x10_record(seconds_on=-0.1)]
        assert any("seconds_on" in e for e in validate_bench(doc))

    def test_x10_identical_must_be_bool(self):
        doc = minimal_document()
        doc["x10"] = [self._x10_record(identical=1)]
        assert any("identical" in e for e in validate_bench(doc))


class TestCommittedX10Baseline:
    """BENCH_10.json is the memoization PR's committed artifact."""

    BASELINE_10 = REPO_ROOT / "BENCH_10.json"

    def test_baseline_exists_and_validates(self):
        document = json.loads(self.BASELINE_10.read_text())
        assert validate_bench(document) == []
        assert document["x10"], "x10 section must be non-empty"

    def test_memo_is_byte_identical_everywhere(self):
        document = json.loads(self.BASELINE_10.read_text())
        for record in document["x10"]:
            assert record["identical"], record["name"]

    def test_memo_pays_off_on_multiround_scenarios(self):
        # The PR's acceptance bar: at least two multi-round scenarios
        # where memoization both cuts wall time >= 1.5x and cuts hash
        # operations >= 5x against the memo-off arm.
        document = json.loads(self.BASELINE_10.read_text())
        strong = [
            r["name"]
            for r in document["x10"]
            if r["speedup"] >= 1.5 and r["hash_ops_ratio"] >= 5.0
        ]
        assert len(strong) >= 2, strong
