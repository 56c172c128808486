"""Code analyser: dependency checker and flag allocator (Fig. 9b/9c).

The analyser parses the Python source of a walk specification's
``get_weight`` method and extracts the information the code generator needs:

* the **assignment statements** that can influence a return value (the
  dependency checker keeps these so the generated helpers can replay them);
* which of those assignments read **edge-indexed arrays** such as
  ``graph.weights[edge]`` — these are the variables that will be substituted
  with preprocessed per-node MAX/SUM aggregates;
* every **return expression** (the leaves of the simplified syntax tree of
  Fig. 9b);
* the **granularity flag**: PER_STEP when any return expression transitively
  depends on an edge-indexed variable, PER_KERNEL otherwise;
* whether the code contains **unsupported constructs** (data-dependent loops,
  recursion, nested functions, warp intrinsics, ...) in which case the
  framework falls back to eRVS-only mode (Section 7.1) instead of failing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.hooks import get_weight_reads_state, parse_function_source
from repro.compiler.flags import BoundGranularity
from repro.walks.spec import WalkSpec

#: Edge arrays whose per-node aggregates the preprocessor can provide.
#: ``indices`` is deliberately absent: a return value built from neighbour
#: *ids* cannot be bounded by an aggregate, so it triggers the fallback.
_AGGREGATABLE_ARRAYS = ("weights", "labels")

#: Names that indicate inter-thread communication in user code; the
#: concurrent RJS/RVS kernel cannot host these (Section 5.2), so they are
#: reported as warnings and force the fallback path.
_WARP_INTRINSIC_NAMES = ("ballot_sync", "shfl_sync", "syncwarp", "syncthreads")


@dataclass(frozen=True)
class EdgeIndexedVariable:
    """A local variable assigned from an edge-indexed graph array."""

    name: str
    source_array: str


@dataclass
class AnalysisResult:
    """Outcome of analysing one ``get_weight`` implementation.

    Attributes
    ----------
    assignments:
        Ordered ``(name, value expression)`` pairs for every simple
        assignment in the function body (the replayable dependency set).
    edge_indexed:
        Variables read from edge-indexed arrays, with their source array.
    return_expressions:
        The AST of every ``return`` expression, in source order.
    return_dependencies:
        For each return expression, the set of local variable names it
        (transitively) depends on.
    granularity:
        PER_KERNEL / PER_STEP flag (see :class:`BoundGranularity`).
    reads_state:
        True when the walker-state parameter is referenced *anywhere* in the
        function body — conditions included, not just return expressions.
        When False, ``get_weight`` is a pure function of ``(graph, edge)``,
        so the transition weight of an edge never changes across steps; the
        runtime uses this to enable cross-superstep transition caching.
    supported:
        False when unsupported constructs were found; the framework then runs
        eRVS-only.
    warnings:
        Human-readable reasons for the fallback (empty when supported).
    argument_names:
        The parameter names of ``get_weight`` in declaration order
        (conventionally ``self, graph, state, edge``).
    """

    assignments: list[tuple[str, ast.expr]] = field(default_factory=list)
    edge_indexed: list[EdgeIndexedVariable] = field(default_factory=list)
    return_expressions: list[ast.expr] = field(default_factory=list)
    return_dependencies: list[set[str]] = field(default_factory=list)
    granularity: BoundGranularity = BoundGranularity.PER_KERNEL
    reads_state: bool = True
    supported: bool = True
    warnings: list[str] = field(default_factory=list)
    argument_names: tuple[str, ...] = ()

    @property
    def edge_indexed_names(self) -> set[str]:
        return {var.name for var in self.edge_indexed}

    def source_array_for(self, name: str) -> str | None:
        for var in self.edge_indexed:
            if var.name == name:
                return var.source_array
        return None


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _get_weight_ast(spec: WalkSpec) -> ast.FunctionDef | None:
    """Parse the source of ``spec.get_weight`` into a function AST.

    Returns ``None`` when the source is unavailable (REPL/exec-defined
    specs) or does not parse; the caller degrades to eRVS-only with a
    warning instead of failing the whole compile.
    """
    parsed = parse_function_source(spec.get_weight)
    if parsed is None:
        return None
    tree = parsed[0]
    fallback: ast.FunctionDef | None = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            if node.name == "get_weight":
                return node
            if fallback is None:
                fallback = node
    # A decorator without functools.wraps leaves only the wrapper's def in
    # the snippet; analysing it is still better than refusing outright.
    return fallback


def _names_in(expr: ast.AST) -> set[str]:
    """All bare variable names referenced inside an expression."""
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def _edge_indexed_source(value: ast.expr, edge_arg: str, graph_arg: str) -> str | None:
    """Detect ``graph.<array>[... edge ...]`` reads; return the array name."""
    if not isinstance(value, ast.Subscript):
        return None
    if edge_arg not in _names_in(value.slice):
        return None
    target = value.value
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        if target.value.id == graph_arg:
            return target.attr
    return None


def _contains_unsupported(func: ast.FunctionDef) -> list[str]:
    """Scan for constructs the code generator cannot reason about."""
    reasons: list[str] = []
    own_name = func.name
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While)):
            reasons.append("loop with a potentially data-dependent exit")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            reasons.append("nested function definition")
        elif isinstance(node, ast.Lambda):
            reasons.append("lambda expression")
        elif isinstance(node, (ast.Try, ast.Raise)):
            reasons.append("exception handling")
        elif isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            if name == own_name:
                reasons.append("recursive call to get_weight")
            if any(intrinsic in name for intrinsic in _WARP_INTRINSIC_NAMES):
                reasons.append(f"inter-thread communication intrinsic {name!r}")
    return reasons


def _transitive_dependencies(
    expr: ast.expr,
    assignment_map: dict[str, ast.expr],
) -> set[str]:
    """Variables the expression depends on, following assignment chains."""
    seen: set[str] = set()
    frontier = _names_in(expr)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in assignment_map:
            frontier |= _names_in(assignment_map[name]) - seen
    return seen


# ---------------------------------------------------------------------- #
# Public entry point
# ---------------------------------------------------------------------- #
def analyze_get_weight(spec: WalkSpec) -> AnalysisResult:
    """Analyse ``spec.get_weight`` and return the dependency/flag table."""
    func = _get_weight_ast(spec)
    if func is None:
        # No source, no analysis: stay conservative (reads_state=True keeps
        # the transition cache off) and run eRVS-only.
        result = AnalysisResult()
        result.supported = False
        result.warnings = [
            f"cannot obtain the source of {type(spec).__name__}.get_weight "
            "(REPL/exec-defined spec?); running eRVS-only"
        ]
        return result
    args = tuple(arg.arg for arg in func.args.args)
    # Conventional parameter order: self, graph, state, edge.  Positions are
    # resolved from the declaration so renamed parameters still work.
    graph_arg = args[1] if len(args) > 1 else "graph"
    edge_arg = args[3] if len(args) > 3 else "edge"

    result = AnalysisResult(argument_names=args)
    result.reads_state = get_weight_reads_state(func)

    reasons = _contains_unsupported(func)
    if reasons:
        result.supported = False
        result.warnings = sorted(set(reasons))

    assignment_map: dict[str, ast.expr] = {}
    # Visit statements in source order so the generated helpers can replay the
    # assignment chain exactly as the user wrote it.  Walrus expressions and
    # augmented assignments join the dependency table like plain assignments:
    # ``x := v`` binds ``v`` and ``x op= v`` rebinds ``x`` to ``x op v``.
    ordered_nodes = sorted(
        (
            n
            for n in ast.walk(func)
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.NamedExpr, ast.Return))
        ),
        key=lambda n: (n.lineno, n.col_offset),
    )

    def record(name: str, value: ast.expr) -> None:
        result.assignments.append((name, value))
        assignment_map[name] = value
        source = _edge_indexed_source(value, edge_arg, graph_arg)
        if source is not None:
            result.edge_indexed.append(EdgeIndexedVariable(name=name, source_array=source))

    for node in ordered_nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            record(node.targets[0].id, node.value)
        elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            record(node.target.id, node.value)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
            expanded = ast.copy_location(
                ast.BinOp(
                    left=ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node),
                    op=node.op,
                    right=node.value,
                ),
                node,
            )
            record(name, expanded)
        elif isinstance(node, ast.Return) and node.value is not None:
            result.return_expressions.append(node.value)

    if not result.return_expressions:
        result.supported = False
        result.warnings.append("get_weight has no return expression")
        return result

    # Flag allocation: PER_STEP when any return value transitively depends on
    # an edge-indexed variable read from an aggregatable array; a dependence
    # on a non-aggregatable edge-indexed read (e.g. graph.indices[edge]) means
    # no bound can be generated at all.
    edge_names = result.edge_indexed_names
    per_step = False
    for expr in result.return_expressions:
        deps = _transitive_dependencies(expr, assignment_map)
        result.return_dependencies.append(deps)
        touched = deps & edge_names
        for name in touched:
            source = result.source_array_for(name)
            if source in _AGGREGATABLE_ARRAYS:
                per_step = True
            else:
                result.supported = False
                result.warnings.append(
                    f"return value depends on non-aggregatable edge array graph.{source}[{edge_arg}]"
                )
    result.granularity = BoundGranularity.PER_STEP if per_step else BoundGranularity.PER_KERNEL
    result.warnings = sorted(set(result.warnings))
    return result
