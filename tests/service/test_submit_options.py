"""The submit surface: one keyword-only, frozen :class:`SubmitOptions`."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import ServiceError
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, SubmitOptions, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
CONFIG = FlexiWalkerConfig(device=DEVICE)


class TestSubmitOptions:
    def _session(self, service_graph):
        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE))
        return service.scheduler().session(DeepWalkSpec(), CONFIG)

    def _queries(self, service_graph):
        return make_queries(service_graph.num_nodes, walk_length=3, num_queries=4)

    def test_options_keyword_reaches_the_scheduler(self, service_graph):
        session = self._session(service_graph)
        session.submit(
            self._queries(service_graph),
            options=SubmitOptions(priority=1, tenant="gold"),
        )
        assert session.pending == 4
        assert session._scheduler.tenant_stats()["gold"].submitted == 4

    def test_other_spellings_are_rejected(self, service_graph):
        session = self._session(service_graph)
        queries = self._queries(service_graph)
        with pytest.raises(TypeError):
            session.submit(queries, SubmitOptions(priority=2))
        with pytest.raises(TypeError):
            session.submit(queries, priority=1)
        with pytest.raises(TypeError, match="SubmitOptions"):
            session.submit(queries, options={"priority": 1})
        assert session.pending == 0

    def test_options_keyword_raises_no_warning(self, service_graph):
        session = self._session(service_graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session.submit(
                self._queries(service_graph), options=SubmitOptions(priority=1)
            )
            result = session.collect()
        assert len(result.paths) == 4

    def test_unknown_keywords_are_rejected(self, service_graph):
        session = self._session(service_graph)
        queries = self._queries(service_graph)
        with pytest.raises(TypeError):
            session.submit(queries, nonsense=True)
        with pytest.raises(TypeError):
            session.submit(queries, SubmitOptions(), options=SubmitOptions())
        assert session.pending == 0

    def test_options_validate(self, service_graph):
        with pytest.raises(ServiceError):
            SubmitOptions(priority=-1)
        with pytest.raises(ServiceError):
            SubmitOptions(deadline_steps=0)
