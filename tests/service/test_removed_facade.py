"""The 3.0.0 removals stay removed: one service API, no one-shot facade.

``FlexiWalker``, ``summarize_run`` and the ``engine=``/``selector=``
keywords of :meth:`WalkService.session` are gone; see MIGRATION.md for
their replacements.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

import repro
import repro.core
from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
CONFIG = FlexiWalkerConfig(device=DEVICE)


@pytest.mark.parametrize("package", [repro, repro.core], ids=["repro", "repro.core"])
def test_facade_names_are_not_exported(package):
    for name in ("FlexiWalker", "summarize_run"):
        assert not hasattr(package, name)
        assert name not in package.__all__


@pytest.mark.parametrize("module", ["repro.core.flexiwalker", "repro.core.results"])
def test_facade_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("keyword", ["engine", "selector"])
def test_session_rejects_removed_keywords(service_graph, keyword):
    service = WalkService(service_graph, fleet=DeviceFleet(DEVICE))
    with pytest.raises(TypeError, match=keyword):
        service.session(DeepWalkSpec(), CONFIG, **{keyword: None})
