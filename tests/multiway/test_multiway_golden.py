"""The multi-round plans keep the parent commit's bytes, inline and on two workers.

``goldens/multiway_parent.json`` (captured by ``multiway_goldens.py`` at the
commit before GYM's waves, the heavy-light triangle's pools and the grid
products shared their helpers) pins every round's label and ``received``
list, L, r and the ordered and sorted output digests of GYM (both
variants, bag joins included), the semijoin plans, a binary plan with a
Cartesian step, ``reduced_hypercube`` and ``cartesian_product``, and their
fault counters under one recovered crash.
"""

import json

import pytest

from repro.exec.config import use_backend
from tests.multiway import multiway_goldens as goldens

GOLDEN = json.loads(goldens.GOLDEN.read_text())
OBSERVATIONS = goldens.observations()


def test_the_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(OBSERVATIONS)
    labels = {label for seen in GOLDEN.values() for label, _ in seen["received"]}
    assert {"bag-join-1", "cartesian-replicate", "semijoin-up", "semijoin-down",
            "hypercube", "join-up"} <= {part for label in labels for part in label.split("+")}
    assert all(seen["faults"]["crashes"] for key, seen in GOLDEN.items()
               if key.startswith("faults/"))


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_every_instance_matches_the_parent_commit(backend):
    with use_backend(backend, workers=2):
        for key, observe in OBSERVATIONS.items():
            assert observe() == GOLDEN[key], key
