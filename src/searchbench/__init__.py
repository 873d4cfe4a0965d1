"""Benchmark harness for search-guided prompting under test-time scaling.

The pipeline, end to end:

1. ``generate``  -- deterministic hard problem instances for four tasks
   (vertex cover, 3-dimensional matching, trip planning, meeting planning).
2. ``solver``    -- exact solutions with full search traces (greedy and
   depth-first with pruning/backtracking).
3. ``prompts``   -- Direct / CoT / AoT prompt bundles forged from those
   traces.
4. ``scaling``   -- four test-time scaling strategies over a model gateway.
5. ``answers``   -- parse model text back into structured solutions and
   verify every stated constraint.
6. ``reporting`` -- success-rate ablation tables and plot-ready data files.

``cli`` ties it together: ``searchbench run --config config.json``.
"""

__version__ = "0.1.0"

from .tasks import (
    ProblemInstance,
    TaskError,
    TaskKind,
    Verdict,
    VerdictStatus,
    read_instances,
    write_instances,
)
from .generate import GenSpec, exemplar_instance, generate
from .solver import SearchMode, SearchTrace, TraceEvent, solve
from .prompts import (
    PromptBundle,
    PromptMode,
    Shots,
    bundle_text,
    default_exemplars,
    render,
    render_refine,
    statement_text,
)
from .answers import ParseReport, canonical_text, evaluate, parse_answer, verify
from .gateway import (
    BackendRequest,
    BackendResponse,
    HttpBackend,
    MockBackend,
    ModelGateway,
    OracleBackend,
    ResponseCache,
    canonical_digest,
)
from .scaling import Attempt, RunOutcome, ScalingKind, ScalingStrategy, default_matrix, execute
from .reporting import AblationCell, RunReport, aggregate, emit
from .cli import RunConfig, run, validate_config

__all__ = [
    "AblationCell",
    "Attempt",
    "BackendRequest",
    "BackendResponse",
    "GenSpec",
    "HttpBackend",
    "MockBackend",
    "ModelGateway",
    "OracleBackend",
    "ParseReport",
    "ProblemInstance",
    "PromptBundle",
    "PromptMode",
    "ResponseCache",
    "RunConfig",
    "RunOutcome",
    "RunReport",
    "ScalingKind",
    "ScalingStrategy",
    "SearchMode",
    "SearchTrace",
    "Shots",
    "TaskError",
    "TaskKind",
    "TraceEvent",
    "Verdict",
    "VerdictStatus",
    "aggregate",
    "bundle_text",
    "canonical_digest",
    "canonical_text",
    "default_exemplars",
    "default_matrix",
    "emit",
    "evaluate",
    "execute",
    "exemplar_instance",
    "generate",
    "parse_answer",
    "read_instances",
    "render",
    "render_refine",
    "run",
    "solve",
    "statement_text",
    "validate_config",
    "verify",
    "write_instances",
]
