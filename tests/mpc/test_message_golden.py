"""The per-tuple senders keep the parent commit's bytes, inline and on two workers.

``goldens/message_parent.json`` (captured by ``message_goldens.py`` at the
commit before every round buffer became column blocks) pins every round's
label and ``received`` list and a digest of every output of the group-bys,
the three matrix multiplications, the grid product and the skew-aware
multi-semijoin, and of one round and some of those senders under
unrecovered channel drops, duplicates and crashes (their fault counters
too).
"""

import json

import pytest

from repro.exec.config import use_backend
from tests.mpc import message_goldens as goldens

GOLDEN = json.loads(goldens.GOLDEN.read_text())
OBSERVATIONS = goldens.observations()


def test_the_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(OBSERVATIONS)
    labels = {label for seen in GOLDEN.values() for label, _ in seen["received"]}
    assert {"groupby-partials", "join-j", "groupby-ik", "merge-partials",
            "rectangular-distribute", "cartesian-replicate", "semijoin"} <= labels
    assert any(seen.get("faults", {}).get("unrecovered") for seen in GOLDEN.values())


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_every_instance_matches_the_parent_commit(backend):
    with use_backend(backend, workers=2):
        for key, observe in OBSERVATIONS.items():
            assert observe() == GOLDEN[key], key
