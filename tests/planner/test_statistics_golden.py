"""The degree decisions keep the parent commit's bytes, inline and on two workers.

``goldens/statistics_parent.json`` (captured by ``statistics_goldens.py``
at the commit before the degree views became arrays) pins, over a fixed
corpus at p in {1, 3, 8}, the full query statistics, the planner's
choice and every candidate, the heavy sets of SkewHC and of the skew
join, the join-size estimates, and every round's label and ``received``
list and an output digest of ``skewhc_join``, ``skew_join`` and
``shuffle_multi_semijoin``.
"""

import json

import pytest

from repro.exec.config import use_backend
from tests.planner import statistics_goldens as goldens

GOLDEN = json.loads(goldens.GOLDEN.read_text())
OBSERVATIONS = goldens.observations()


def test_the_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(OBSERVATIONS)
    chosen = {seen["chosen"] for seen in GOLDEN.values()}
    assert {"hash", "skew", "hypercube", "gym", "scan"} <= chosen
    assert any(seen.get("heavy_keys", "[]") != "[]" for seen in GOLDEN.values())


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_every_instance_matches_the_parent_commit(backend):
    with use_backend(backend, workers=2):
        for key, observe in OBSERVATIONS.items():
            assert observe() == GOLDEN[key], key
