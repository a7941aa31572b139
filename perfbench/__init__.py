"""perfbench — the replay-based benchmark of the ``repro`` MPC engine.

Four named workloads, each a fixed script of op *slots* replayed many
times in fresh child processes; every latency figure is a function of
the per-slot **minimum over replays** (interference on a shared VM is
additive, so the minimum is the program and the rest is the neighbour).
``python -m perfbench`` prints every metric by name with its unit and
verifies every output; see ``perfbench/README.md``.

perfbench measures ``repro`` only from outside: public functions and
public stats objects. The per-layer trace installs its timing wrappers
at run time (:mod:`perfbench.tracing`) and removes them afterwards.
"""
