"""The sorts keep the parent commit's bytes, inline and on two workers.

``goldens/sort_parent.json`` (captured by ``sort_goldens.py`` at the
commit before the sorts moved to (key, position) columns) pins every
round's label and ``received`` list and a digest of every output of
``psrs_sort``, ``sort_join``, ``band_join`` and ``multiround_sort`` (on
distinct keys) over a fixed corpus.
"""

import json

import pytest

from repro.exec.config import use_backend
from tests.sorting import sort_goldens as goldens

GOLDEN = json.loads(goldens.GOLDEN.read_text())
OBSERVATIONS = goldens.observations()


def test_the_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(OBSERVATIONS)
    labels = {label for seen in GOLDEN.values() for label, _ in seen["received"]}
    assert {"psrs-partition", "boundary-report", "band-replicate"} <= labels
    assert any(label.startswith("msort-partition-2") for label in labels)


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_every_instance_matches_the_parent_commit(backend):
    with use_backend(backend, workers=2):
        for key, observe in OBSERVATIONS.items():
            assert observe() == GOLDEN[key], key
