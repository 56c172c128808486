"""Hook-source extraction for the whole-spec verifier.

:mod:`repro.compiler.analyzer` parses exactly one method — ``get_weight``.
The verifier generalises that to *every* user-overridable hook of a
:class:`~repro.walks.spec.WalkSpec`: the scalar/vector/batch weight paths,
the update hooks, the cost hooks and ``describe``.  This module locates
which hooks a spec actually overrides, reads their source (degrading to a
diagnostic, never an exception, when :func:`inspect.getsource` fails —
e.g. REPL-defined specs), and parses each into an AST annotated with
absolute file/line positions so diagnostics carry real source spans.

It also performs **one-level helper expansion**: a hook that calls
``self._helper(...)`` pulls ``_helper``'s source into the analysis under
the same hook context, so rules see through the common
"hook delegates to a private method" idiom (e.g. MetaPath's
``_expected_label``).
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, Severity, SourceSpan
from repro.walks.spec import WalkSpec

#: Behavioural hooks a user spec may override, in analysis order.  ``init``
#: runs once at construction and ``walk_length`` only resolves an integer,
#: so neither participates in the per-step purity rules.
BEHAVIOR_HOOKS: tuple[str, ...] = (
    "get_weight",
    "transition_weights",
    "transition_weights_batch",
    "static_transition_weights",
    "update",
    "update_batch",
    "probe_cost_words",
    "scan_cost_words",
    "probe_cost_words_batch",
    "scan_cost_words_batch",
)

#: Hooks on the transition-weight path; any state dependence here decides
#: :class:`~repro.sampling.transition_cache.TransitionCache` eligibility.
WEIGHT_HOOKS: tuple[str, ...] = (
    "get_weight",
    "transition_weights",
    "transition_weights_batch",
    "static_transition_weights",
)

#: Hooks that are *expected* to mutate walker state; exempt from the
#: pure-hook-writes-self rule.
MUTATING_HOOKS: tuple[str, ...] = ("update", "update_batch")


@dataclass
class HookSource:
    """Parsed source of one hook (or one-level helper) of a spec.

    ``line_offset`` converts snippet-relative AST line numbers to absolute
    file lines: ``absolute = node.lineno + line_offset``.
    """

    name: str
    func: ast.FunctionDef
    file: str
    line_offset: int
    arg_names: tuple[str, ...]
    #: Name of the hook this source was expanded from; equals ``name`` for
    #: the hook itself, differs for ``self._helper`` expansions.
    context: str = ""

    def __post_init__(self) -> None:
        if not self.context:
            self.context = self.name

    def span(self, node: ast.AST) -> SourceSpan:
        """Absolute source span of one AST node inside this hook."""
        line = getattr(node, "lineno", 1) + self.line_offset
        end_line = getattr(node, "end_lineno", None)
        return SourceSpan(
            file=self.file,
            line=line,
            end_line=(end_line + self.line_offset) if end_line else line,
            col=getattr(node, "col_offset", 0),
            end_col=getattr(node, "end_col_offset", 0) or 0,
        )


@dataclass
class SpecSources:
    """Every analysable hook source of one spec, plus load failures."""

    spec_class: str
    hooks: list[HookSource] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Hooks whose source could not be read (analysis must be conservative
    #: about anything these could have done).
    unreadable: list[str] = field(default_factory=list)

    def hook(self, name: str) -> HookSource | None:
        for source in self.hooks:
            if source.name == name and source.context == name:
                return source
        return None

    def in_context(self, context: str) -> list[HookSource]:
        """The hook plus its expanded helpers, for one hook context."""
        return [source for source in self.hooks if source.context == context]


def hook_overridden(spec: WalkSpec, name: str) -> bool:
    """True when ``type(spec)`` overrides the base-class hook ``name``."""
    return getattr(type(spec), name, None) is not getattr(WalkSpec, name, None)


def get_weight_reads_state(func: ast.FunctionDef) -> bool:
    """The scalar reads-state proof: does ``get_weight`` mention its state?

    True when the state parameter (conventionally ``self, graph, state,
    edge``; resolved by position so renamed parameters still work) appears
    anywhere in the body.  Branch conditions count: a state-dependent branch
    makes the *value* state-dependent even when every return expression is
    state-free.  The compiler's :class:`~repro.compiler.analyzer.AnalysisResult`
    and the cache-safety verdict both read this one proof.
    """
    args = func.args.args
    state_arg = args[2].arg if len(args) > 2 else "state"
    return any(isinstance(node, ast.Name) and node.id == state_arg for node in ast.walk(func))


def get_source_line(file: str, lineno: int) -> str:
    """Raw source line for suppression matching ('' when unavailable)."""
    if lineno <= 0:
        return ""
    return linecache.getline(file, lineno)


def _load_function(fn, name: str) -> HookSource | None:
    """Parse one bound/unbound function into a :class:`HookSource`."""
    try:
        unwrapped = inspect.unwrap(fn)
        lines, start = inspect.getsourcelines(unwrapped)
        file = inspect.getsourcefile(unwrapped) or "<unknown>"
    except (OSError, TypeError, ValueError):
        return None
    source = textwrap.dedent("".join(lines))
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node
            break
    else:
        return None
    # The snippet's first line is absolute line ``start``; a decorator may
    # push the ``def`` further down, which node.lineno already accounts for.
    offset = start - 1
    args = tuple(arg.arg for arg in func.args.args)
    return HookSource(name=name, func=func, file=file, line_offset=offset, arg_names=args)


def _self_helper_calls(source: HookSource) -> set[str]:
    """Names of ``self._helper(...)`` / ``self.helper(...)`` calls."""
    self_name = source.arg_names[0] if source.arg_names else "self"
    helpers: set[str] = set()
    for node in ast.walk(source.func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self_name
        ):
            helpers.add(node.func.attr)
    return helpers


def load_spec_sources(spec: WalkSpec) -> SpecSources:
    """Load the source of every overridden behaviour hook of ``spec``.

    Never raises: a hook whose source cannot be read is recorded in
    ``unreadable`` with a WARNING diagnostic (rule ``spec/source-unavailable``)
    and the rule families treat it conservatively.
    """
    sources = SpecSources(spec_class=type(spec).__qualname__)
    base_names = set(BEHAVIOR_HOOKS)
    for name in BEHAVIOR_HOOKS:
        if not hook_overridden(spec, name):
            continue
        fn = getattr(type(spec), name)
        loaded = _load_function(fn, name)
        if loaded is None:
            sources.unreadable.append(name)
            sources.diagnostics.append(
                Diagnostic(
                    rule="spec/source-unavailable",
                    severity=Severity.WARNING,
                    message=(
                        f"cannot read the source of {type(spec).__qualname__}.{name}; "
                        "analysis falls back to conservative assumptions"
                    ),
                    hook=name,
                    fix_hint="define the spec in an importable module, not a REPL or exec string",
                )
            )
            continue
        sources.hooks.append(loaded)
        # One-level helper expansion: self.<method>() bodies join the
        # analysis under the calling hook's context.
        for helper in sorted(_self_helper_calls(loaded)):
            if helper in base_names:
                continue
            helper_fn = getattr(type(spec), helper, None)
            if helper_fn is None or not callable(helper_fn):
                continue
            expanded = _load_function(helper_fn, helper)
            if expanded is None:
                sources.unreadable.append(f"{name}.{helper}")
                continue
            expanded.context = name
            sources.hooks.append(expanded)
    return sources


def load_describe(spec: WalkSpec) -> list[HookSource]:
    """Every ``describe`` implementation in the MRO below :class:`WalkSpec`.

    The registry-key rule needs all of them: a subclass's ``describe`` that
    calls ``super().describe()`` keys whatever the parents key.
    """
    loaded: list[HookSource] = []
    seen: set[object] = set()
    for klass in type(spec).__mro__:
        if klass is WalkSpec or not issubclass(klass, WalkSpec):
            continue
        fn = klass.__dict__.get("describe")
        if fn is None or fn in seen:
            continue
        seen.add(fn)
        source = _load_function(fn, "describe")
        if source is not None:
            loaded.append(source)
    return loaded
