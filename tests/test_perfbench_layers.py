"""The per-layer benchmark's wrappers still fit the program.

``perfbench/layers.py`` patches named functions and methods of the program
from the outside.  A refactor that removes or renames one of them, or stops
routing supersteps through the module-level ``iter_supersteps`` names the
benchmark wraps, would break or silently empty the traced benchmark run.
These tests install the wrappers, drive a standalone and a
scheduler-attached session through them, and check that restoring puts
every patched attribute back exactly.
"""

from __future__ import annotations

import dataclasses

from perfbench import layers
from perfbench.tracer import _MISSING, Tracer

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(30, 3, seed=2, name="perfbench-layers")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=2))
WALK_LENGTH = 5
QUERIES = [WalkQuery(query_id=i, start_node=i, max_length=WALK_LENGTH) for i in range(6)]


def _current(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr, _MISSING)
    return getattr(owner, attr)


def test_install_then_restore_leaves_every_attribute_identical():
    tracer = Tracer()
    layers.install(tracer)
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, previous in patches:
            assert _current(owner, attr) is not previous, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, previous in patches:
        assert _current(owner, attr) is previous, (owner, attr)


def test_sessions_run_their_supersteps_through_the_wrapped_names():
    config = FlexiWalkerConfig(device=DEVICE, seed=1)
    service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE))
    tracer = Tracer()
    with layers.traced(tracer):
        standalone = service.session(DeepWalkSpec(), config)
        standalone.submit(QUERIES)
        standalone.collect()
        standalone_steps = tracer.counts["runtime.supersteps"]

        scheduler = service.scheduler()
        attached = scheduler.session(DeepWalkSpec(), config)
        attached.submit(QUERIES)
        attached.collect()
    assert standalone_steps > 0
    assert tracer.counts["runtime.supersteps"] > standalone_steps
