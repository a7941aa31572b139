"""Multiway joins on the MPC model: HyperCube, SkewHC, binary plans, GYM."""

from repro.multiway.aggregate import (
    group_by,
    reference_group_by,
    two_phase_group_by,
)
from repro.multiway.base import (
    MultiwayRun,
    shuffle_join,
    shuffle_multi_semijoin,
    shuffle_semijoin,
)
from repro.multiway.binary_plans import binary_join_plan
from repro.multiway.gym import gym
from repro.multiway.hypercube import hypercube_join, triangle_hypercube
from repro.multiway.semijoin import triangle_hl_semijoin, two_path_semijoin_plan
from repro.multiway.reduced import reduced_hypercube
from repro.multiway.skewhc import find_heavy_values, skewhc_join
from repro.multiway.wcoj import generic_join
from repro.multiway.yannakakis import YannakakisResult, yannakakis

__all__ = [
    "MultiwayRun",
    "YannakakisResult",
    "binary_join_plan",
    "find_heavy_values",
    "generic_join",
    "group_by",
    "gym",
    "hypercube_join",
    "shuffle_join",
    "shuffle_multi_semijoin",
    "reduced_hypercube",
    "reference_group_by",
    "shuffle_semijoin",
    "skewhc_join",
    "triangle_hl_semijoin",
    "triangle_hypercube",
    "two_phase_group_by",
    "two_path_semijoin_plan",
    "yannakakis",
]
