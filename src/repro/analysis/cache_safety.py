"""Cache-safety rules: the whole-spec state-freeness proof.

The cross-superstep :class:`~repro.sampling.transition_cache.TransitionCache`
serves one weight row per *node*.  That is sound only when every weight path
of the spec is a pure function of ``(graph, current node)``.  The compiler's
:func:`~repro.compiler.analyzer.analyze_get_weight` proves this for the
scalar ``get_weight`` — but the batched engine samples from
``transition_weights_batch`` and the per-node fill uses
``transition_weights``, so an override of either that *does* read walker
state silently diverges from the scalar proof and gets served stale cache
rows.  These rules close that gap:

``cache-safety/vector-state-divergence``
    ``transition_weights`` override reads walker state (anything beyond
    ``state.current_node``) while scalar ``get_weight`` is state-free.
``cache-safety/batch-state-divergence``
    ``transition_weights_batch`` override reads per-walker state
    (``batch.prev`` / ``batch.steps`` / ``batch.state(i)`` / ``batch.rng``
    ...) while scalar ``get_weight`` is state-free.
``cache-safety/update-batch-divergence``
    ``update_batch`` overridden while scalar ``update`` is not — the
    node-only check inspects only ``update``, so the batched engine would
    mutate state the proof assumed frozen.

The verdict's ``weights_state_free`` is the conjunction the runtime needs:
scalar path state-free AND no override reads state AND no update hook
overridden AND every weight-path source readable.
:attr:`~repro.compiler.generator.CompiledWorkload.weights_node_only`
requires it before a :class:`TransitionCache` is ever built.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.diagnostics import UNKNOWN_SPAN, Diagnostic, Severity, _DiagnosticCollector
from repro.analysis.hooks import (
    HookSource,
    SpecSources,
    get_weight_reads_state,
    hook_overridden,
)
from repro.walks.spec import WalkSpec

#: ``BatchStepContext`` members that expose per-walker, step-varying state.
BATCH_STATE_ATTRS = frozenset(
    {"prev", "steps", "frontier", "walkers", "rng", "state", "stream", "scalar_context"}
)

#: ``BatchStepContext`` members that are pure functions of the frontier's
#: *current nodes* (or framework plumbing) — safe under per-node caching.
BATCH_NODE_ONLY_ATTRS = frozenset(
    {
        "graph",
        "spec",
        "counters",
        "slots",
        "bound_hints",
        "sum_hints",
        "warp_width",
        "transition_cache",
        "arena",
        "size",
        "current",
        "edge_start",
        "degrees",
        "offsets",
        "seg_ids",
        "flat_edges",
        "neighbors_flat",
        "edge_mask",
        "charge",
        "gather_weights",
        "transition_weights",
        "subset",
        "absorb",
    }
)

#: The only ``WalkerState`` attribute a node-only ``transition_weights``
#: override may read.
SCALAR_NODE_ONLY_ATTRS = frozenset({"current_node"})


@dataclass
class CacheSafetyVerdict:
    """Outcome of the cache-safety family for one spec."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Whole-spec proof that every weight path ignores walker state.
    weights_state_free: bool = False
    #: Scalar ``get_weight`` state usage (True when unknown — conservative).
    scalar_reads_state: bool = True


def _parent_map(func: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(func):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _arg_name(source: HookSource, index: int, default: str) -> str:
    if len(source.arg_names) > index:
        return source.arg_names[index]
    return default


def _state_uses(
    source: HookSource,
    arg: str,
    benign_attrs: frozenset[str],
    state_attrs: frozenset[str] | None = None,
) -> list[tuple[ast.AST, str]]:
    """Every use of ``arg`` that could make the hook state-dependent.

    Attribute reads in ``benign_attrs`` are proven node-only; reads in
    ``state_attrs`` (when given) are proven state-dependent; anything else —
    unknown attributes, or the object escaping bare into a call/subscript —
    is conservatively treated as a state read.
    """
    uses: list[tuple[ast.AST, str]] = []
    parents = _parent_map(source.func)
    for node in ast.walk(source.func):
        if not (isinstance(node, ast.Name) and node.id == arg):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            attr = parent.attr
            if attr in benign_attrs:
                continue
            if state_attrs is not None and attr in state_attrs:
                uses.append((parent, f"reads per-walker state {arg}.{attr}"))
            else:
                uses.append(
                    (parent, f"reads {arg}.{attr}, not provably node-only")
                )
        else:
            uses.append((node, f"{arg} escapes the hook (passed or used whole)"))
    return uses


def check_cache_safety(spec: WalkSpec, sources: SpecSources) -> CacheSafetyVerdict:
    """Run the cache-safety family and compute the whole-spec proof."""
    verdict = CacheSafetyVerdict()
    out = _DiagnosticCollector()

    scalar = sources.hook("get_weight")
    if scalar is not None:
        verdict.scalar_reads_state = get_weight_reads_state(scalar.func)
    scalar_known = scalar is not None
    state_free = scalar_known and not verdict.scalar_reads_state

    # Vector override: only state.current_node is node-only.
    vector = sources.hook("transition_weights")
    if vector is not None:
        uses = _state_uses(vector, _arg_name(vector, 2, "state"), SCALAR_NODE_ONLY_ATTRS)
        if uses:
            state_free = False
            if scalar_known and not verdict.scalar_reads_state:
                for node, reason in uses:
                    out.add(
                        "cache-safety/vector-state-divergence",
                        Severity.ERROR,
                        f"transition_weights {reason} while get_weight is state-free; "
                        "a per-node TransitionCache row would go stale",
                        span=vector.span(node),
                        hook="transition_weights",
                        fix_hint="make both paths agree: drop the state read or read it in get_weight too",
                    )
    elif hook_overridden(spec, "transition_weights"):
        state_free = False  # overridden but unreadable — assume the worst

    # Batch override: the engine's actual sampling path.
    batch = sources.hook("transition_weights_batch")
    if batch is not None:
        uses = _state_uses(
            batch,
            _arg_name(batch, 2, "batch"),
            BATCH_NODE_ONLY_ATTRS,
            state_attrs=BATCH_STATE_ATTRS,
        )
        if uses:
            state_free = False
            if scalar_known and not verdict.scalar_reads_state:
                for node, reason in uses:
                    out.add(
                        "cache-safety/batch-state-divergence",
                        Severity.ERROR,
                        f"transition_weights_batch {reason} while get_weight is "
                        "state-free; the batched engine would be served stale "
                        "TransitionCache rows",
                        span=batch.span(node),
                        hook="transition_weights_batch",
                        fix_hint="make both paths agree: drop the state read or read it in get_weight too",
                    )
    elif hook_overridden(spec, "transition_weights_batch"):
        state_free = False

    # Update hooks: any per-step mutation voids the frozen-weights premise,
    # and an update_batch-only override dodges the runtime's update check.
    update_overridden = hook_overridden(spec, "update")
    update_batch_overridden = hook_overridden(spec, "update_batch")
    if update_overridden or update_batch_overridden:
        state_free = False
    if update_batch_overridden and not update_overridden:
        source = sources.hook("update_batch")
        out.add(
            "cache-safety/update-batch-divergence",
            Severity.ERROR,
            "update_batch is overridden but update is not; node-only checks "
            "inspect update, so the batched engine would mutate state the "
            "cache proof assumed frozen",
            span=source.span(source.func) if source is not None else UNKNOWN_SPAN,
            hook="update_batch",
            fix_hint="override update as well (or instead) so both engines agree",
        )

    verdict.diagnostics = out.diagnostics
    verdict.weights_state_free = state_free
    return verdict
