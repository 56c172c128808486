"""FlexiWalker reproduction.

A pure-Python reproduction of *FlexiWalker: Extensible GPU Framework for
Efficient Dynamic Random Walks with Runtime Adaptation* (EUROSYS '26).  The
GPU hardware is replaced by a cost-accounting execution simulator
(:mod:`repro.gpusim`); everything else — the optimised eRJS/eRVS kernels, the
first-order cost model, the compile-time specialisation and the baseline
systems — is implemented faithfully.

Quick start (serving API)::

    from repro import WalkService, Node2VecSpec, load_dataset, make_queries

    graph = load_dataset("YT", weights="uniform")
    service = WalkService(graph)
    session = service.session(Node2VecSpec())
    session.submit(make_queries(graph.num_nodes, walk_length=20))
    for chunk in session.stream():
        ...                       # walks as they complete, per superstep
    result = session.collect()    # exact aggregate
    print(result.time_ms, result.selection_ratio())

The legacy one-shot facade (``FlexiWalker(graph, spec).run(...)``) still
works and produces bit-identical results, but emits ``DeprecationWarning`` —
see ``MIGRATION.md``.
"""

from repro.analysis import Diagnostic, Severity, SourceSpan, SpecReport, verify_spec
from repro.baselines.base import BaselineSystem
from repro.bench.config import ExperimentConfig
from repro.bench.runner import SystemRun
from repro.compiler.analyzer import AnalysisResult, EdgeIndexedVariable
from repro.compiler.generator import CompiledWorkload, GeneratedHelpers
from repro.compiler.preprocess import PreprocessResult
from repro.core.config import FlexiWalkerConfig
from repro.core.flexiwalker import FlexiWalker
from repro.core.results import summarize_run
from repro.graph.csr import CSRGraph
from repro.graph.delta import DeltaCSRGraph, GraphDelta
from repro.graph.invalidation import DeltaInvalidation, graph_version
from repro.graph.sharded import (
    SHARD_POLICIES,
    GhostNodeCache,
    GraphShard,
    ShardedCSRGraph,
)
from repro.graph.datasets import DatasetSpec, load_dataset, dataset_names
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import A6000, DeviceSpec
from repro.gpusim.energy import EnergyReport
from repro.gpusim.executor import KernelResult
from repro.gpusim.memory import MemoryModel
from repro.runtime.cost_model import CostModel
from repro.runtime.engine import WalkEngine, WalkRunResult
from repro.runtime.faults import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DeviceFailure,
    FaultPlan,
    InterconnectDrop,
    TransientFault,
)
from repro.runtime.frontier import SuperstepReport
from repro.runtime.profiler import ProfileResult
from repro.runtime.selector import DegreeThresholdRule
from repro.sampling.base import StepContext
from repro.sampling.batch import BatchStepContext
from repro.errors import DeadlineExceeded, FaultError, QueueFull
from repro.service import (
    BACKENDS,
    DeviceFleet,
    ExecutionPlan,
    QueryTicket,
    ServiceCapabilities,
    ServiceScheduler,
    SubmitOptions,
    TenantStats,
    WalkChunk,
    WalkService,
    WalkSession,
    negotiate_plan,
)
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec, UnweightedNode2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.spec import UniformWalkSpec, WalkSpec
from repro.walks.state import WalkerState, WalkQuery, make_queries

__version__ = "2.0.0"

__all__ = [
    # Serving API (the supported entry point)
    "WalkService",
    "WalkSession",
    "WalkChunk",
    "QueryTicket",
    "DeviceFleet",
    "ExecutionPlan",
    "ServiceCapabilities",
    "BACKENDS",
    "negotiate_plan",
    # Continuous batching (multi-tenant scheduler)
    "ServiceScheduler",
    "SubmitOptions",
    "TenantStats",
    "QueueFull",
    "DeadlineExceeded",
    # Fault tolerance (deterministic fault injection + checkpointing)
    "FaultPlan",
    "DeviceFailure",
    "TransientFault",
    "InterconnectDrop",
    "FaultError",
    "DEFAULT_CHECKPOINT_INTERVAL",
    # Legacy facade (deprecated spellings, kept for compatibility)
    "FlexiWalker",
    "summarize_run",
    # Configuration and results
    "FlexiWalkerConfig",
    "WalkEngine",
    "WalkRunResult",
    "SuperstepReport",
    "KernelResult",
    "CostCounters",
    "ProfileResult",
    "CostModel",
    "DegreeThresholdRule",
    "StepContext",
    "BatchStepContext",
    # Compiler artifacts
    "CompiledWorkload",
    "GeneratedHelpers",
    "AnalysisResult",
    "EdgeIndexedVariable",
    "PreprocessResult",
    # Static analysis (whole-spec verifier)
    "verify_spec",
    "SpecReport",
    "Diagnostic",
    "Severity",
    "SourceSpan",
    # Devices and simulator models
    "DeviceSpec",
    "A6000",
    "MemoryModel",
    "EnergyReport",
    # Baselines and benchmarking
    "BaselineSystem",
    "ExperimentConfig",
    "SystemRun",
    # Graphs (DeltaCSRGraph/GraphDelta: the dynamic-graph overlay subsystem)
    "CSRGraph",
    "DeltaCSRGraph",
    "GraphDelta",
    "DeltaInvalidation",
    "graph_version",
    "ShardedCSRGraph",
    "GraphShard",
    "GhostNodeCache",
    "SHARD_POLICIES",
    "DatasetSpec",
    "load_dataset",
    "dataset_names",
    # Workloads and queries
    "WalkSpec",
    "UniformWalkSpec",
    "Node2VecSpec",
    "UnweightedNode2VecSpec",
    "MetaPathSpec",
    "SecondOrderPRSpec",
    "DeepWalkSpec",
    "WalkQuery",
    "WalkerState",
    "make_queries",
    "__version__",
]
