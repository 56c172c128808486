"""Whole-spec verifier: rule families fire with precise ids and spans.

Every fixture spec lives in ``spec_fixtures.py`` (file-backed, so
``inspect`` resolves real source lines); the tests assert the rule id AND
the reported span against marker comments in that file, so a refactor that
shifts the analyzer's anchoring is caught immediately.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np
import spec_fixtures as fx

from repro.analysis import Severity, verify_callable, verify_spec
from repro.analysis.hooks import load_spec_sources
from repro.compiler.analyzer import analyze_get_weight
from repro.graph.generators import barabasi_albert_graph
from repro.service import WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec, UnweightedNode2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.spec import UniformWalkSpec

FIXTURE_FILE = Path(fx.__file__)
FIXTURE_LINES = FIXTURE_FILE.read_text().splitlines()


def mark_line(tag: str) -> int:
    """1-indexed line of the unique ``# MARK: <tag>`` comment."""
    hits = [i + 1 for i, ln in enumerate(FIXTURE_LINES) if f"# MARK: {tag}" in ln]
    assert len(hits) == 1, f"marker {tag!r} must appear exactly once"
    return hits[0]


def only_diag(report, rule):
    matching = [d for d in report.diagnostics if d.rule == rule]
    assert matching, f"expected {rule}, got {[d.rule for d in report.diagnostics]}"
    return matching[0]


class TestBuiltinSpecsAreClean:
    """Zero false positives on every walk spec shipped with the repo."""

    def test_no_errors_or_warnings(self):
        for cls in (
            DeepWalkSpec,
            MetaPathSpec,
            Node2VecSpec,
            UnweightedNode2VecSpec,
            SecondOrderPRSpec,
            UniformWalkSpec,
        ):
            report = verify_spec(cls())
            assert report.diagnostics == (), (
                f"{cls.__name__}: {[d.format() for d in report.diagnostics]}"
            )

    def test_state_free_proof_matches_semantics(self):
        # DeepWalk and uniform walks weight edges by the graph alone; the
        # second-order family genuinely reads walker state on every path.
        assert verify_spec(DeepWalkSpec()).weights_state_free
        assert verify_spec(UniformWalkSpec()).weights_state_free
        assert not verify_spec(Node2VecSpec()).weights_state_free
        assert not verify_spec(MetaPathSpec()).weights_state_free
        assert not verify_spec(SecondOrderPRSpec()).weights_state_free


class TestDeterminismRules:
    def test_module_stream_flagged_with_span(self):
        report = verify_spec(fx.BadRngSpec())
        diag = only_diag(report, "determinism/unseeded-rng")
        assert diag.severity is Severity.ERROR
        assert diag.hook == "get_weight"
        assert diag.span.file == str(FIXTURE_FILE)
        assert diag.span.line == mark_line("bad-rng")

    def test_unseeded_factory_flagged(self):
        diag = only_diag(verify_spec(fx.UnseededFactorySpec()), "determinism/unseeded-rng")
        assert diag.span.line == mark_line("unseeded-factory")

    def test_wall_clock_flagged(self):
        diag = only_diag(verify_spec(fx.WallClockSpec()), "determinism/wall-clock")
        assert diag.severity is Severity.ERROR
        assert diag.span.line == mark_line("wall-clock")

    def test_id_is_error_hash_is_warning(self):
        id_diag = only_diag(verify_spec(fx.IdentitySpec()), "determinism/object-identity")
        assert id_diag.severity is Severity.ERROR
        assert id_diag.span.line == mark_line("identity")
        hash_diag = only_diag(verify_spec(fx.HashSpec()), "determinism/object-identity")
        assert hash_diag.severity is Severity.WARNING
        assert hash_diag.span.line == mark_line("hash")

    def test_weight_hook_writing_self_flagged(self):
        report = verify_spec(fx.MemoSpec())
        diag = only_diag(report, "determinism/pure-hook-writes-self")
        assert diag.severity is Severity.ERROR
        assert diag.span.line == mark_line("memo-write")
        assert "last_edge" in diag.message
        # A mutating hook taints the registry key too: the memo is never
        # reflected in describe() — but the pure-hook rule is the root cause.
        assert report.has_errors

    def test_global_statement_is_warning(self):
        diag = only_diag(verify_spec(fx.GlobalStateSpec()), "determinism/global-state")
        assert diag.severity is Severity.WARNING
        assert diag.span.line == mark_line("global-state")

    def test_closure_over_mutable_callable(self):
        diags = verify_callable(fx.make_selector(), name="selector")
        rules = {d.rule for d in diags}
        assert "determinism/closure-mutable" in rules
        diag = next(d for d in diags if d.rule == "determinism/closure-mutable")
        assert diag.severity is Severity.WARNING
        assert "captured" in diag.message


class TestCacheSafetyRules:
    def test_batch_override_divergence(self):
        report = verify_spec(fx.StatefulBatchSpec())
        diag = only_diag(report, "cache-safety/batch-state-divergence")
        assert diag.severity is Severity.ERROR
        assert diag.hook == "transition_weights_batch"
        assert diag.span.line == mark_line("batch-state")
        assert not report.weights_state_free

    def test_vector_override_divergence(self):
        report = verify_spec(fx.StatefulVectorSpec())
        diag = only_diag(report, "cache-safety/vector-state-divergence")
        assert diag.severity is Severity.ERROR
        assert diag.span.line == mark_line("vector-state")
        assert not report.weights_state_free

    def test_update_batch_without_update(self):
        report = verify_spec(fx.UpdateBatchOnlySpec())
        diag = only_diag(report, "cache-safety/update-batch-divergence")
        assert diag.severity is Severity.ERROR
        assert diag.span.line == mark_line("update-batch-only")
        assert not report.weights_state_free


class TestRegistryKeyRules:
    def test_unkeyed_attribute_flagged_at_read_site(self):
        report = verify_spec(fx.UnkeyedSpec())
        diag = only_diag(report, "registry-keys/unkeyed-attribute")
        assert diag.severity is Severity.ERROR
        assert diag.span.line == mark_line("unkeyed-read")
        assert "bias" in diag.message
        assert "describe" in (diag.fix_hint or "")

    def test_keyed_counterpart_is_clean(self):
        assert verify_spec(fx.KeyedSpec()).diagnostics == ()


class TestSuppression:
    def test_inline_ignore_silences_the_diagnostic(self):
        report = verify_spec(fx.SuppressedRngSpec())
        assert all(d.rule != "determinism/unseeded-rng" for d in report.diagnostics)
        assert not report.has_errors

    def test_suppression_does_not_restore_cache_eligibility(self):
        # StatefulBatchSpec's divergence stays disqualifying even if a user
        # silences the diagnostic — compare against the suppressed-RNG spec,
        # whose weights genuinely are node-only.
        assert verify_spec(fx.SuppressedRngSpec()).weights_state_free


class TestSourceUnavailable:
    def test_exec_defined_spec_degrades_to_warning(self):
        namespace: dict = {}
        exec(  # noqa: S102 - deliberately building a source-less spec
            "from repro.walks.spec import WalkSpec\n"
            "class ReplSpec(WalkSpec):\n"
            "    name = 'repl'\n"
            "    def get_weight(self, graph, state, edge):\n"
            "        return graph.weights[edge]\n",
            namespace,
        )
        report = verify_spec(namespace["ReplSpec"]())
        rules = {d.rule for d in report.diagnostics}
        assert "spec/source-unavailable" in rules
        assert not report.has_errors  # degrades, never hard-fails
        assert not report.weights_state_free  # no proof without source


class TestSourcesParsedOnce:
    """Every graph delta recompiles the workload; hook sources are read once."""

    @staticmethod
    def count_source_reads(monkeypatch) -> list:
        reads = []
        original = inspect.getsourcelines

        def getsourcelines(obj):
            reads.append(obj)
            return original(obj)

        monkeypatch.setattr(inspect, "getsourcelines", getsourcelines)
        return reads

    def test_repeat_verification_reads_no_source(self, monkeypatch):
        spec_classes = (MetaPathSpec, Node2VecSpec, fx.BadRngSpec)
        first = [verify_spec(cls()) for cls in spec_classes]
        analyses = [analyze_get_weight(cls()) for cls in spec_classes]
        reads = self.count_source_reads(monkeypatch)
        assert [verify_spec(cls()) for cls in spec_classes] == first
        for cls, analysis in zip(spec_classes, analyses):
            again = analyze_get_weight(cls())
            assert again.supported == analysis.supported
            assert again.return_dependencies == analysis.return_dependencies
        assert reads == []
        # Spans still point at the fixture's real lines.
        diag = only_diag(first[2], "determinism/unseeded-rng")
        assert diag.span.line == mark_line("bad-rng")

    def test_helper_contexts_are_not_shared_between_loads(self):
        # MetaPath's transition_weights expands self._expected_label under
        # its own context; the expansion must not leak into a later load.
        first = load_spec_sources(MetaPathSpec())
        second = load_spec_sources(MetaPathSpec())
        pairs = [(source.name, source.context) for source in first.hooks]
        assert ("_expected_label", "transition_weights") in pairs
        assert [(source.name, source.context) for source in second.hooks] == pairs
        assert all(a is not b for a, b in zip(first.hooks, second.hooks))

    def test_recompile_after_a_delta_reads_no_source(self, monkeypatch):
        service = WalkService(barabasi_albert_graph(60, 3, seed=1, name="ba-60"))
        spec = Node2VecSpec()
        service.compile(spec)
        reads = self.count_source_reads(monkeypatch)
        service.apply_delta(np.array([[0, 59]]), weights=np.array([0.5]))
        recompiled = service.compile(spec)
        assert recompiled.report.diagnostics == ()
        assert reads == []
