"""Dataflow engine: tracks configuration parameters through the IR.

Implements the paper's §2.2 analysis core: "SPEX ... tracks the
data-flow of each program variable corresponding to the configuration
parameter, and records any constraint that is discovered along the
data-flow path.  We implement SPEX's analysis to be inter-procedural,
context-sensitive, and field-sensitive."

The engine consumes *seeds* (produced by the mapping toolkits in
`repro.core.mapping`) and emits *events* - facts observed on tainted
values (casts, API-call arguments, branch comparisons, stores,
string-compare dispatches) - which the inference passes in
`repro.core` turn into constraints.
"""

from repro.analysis.seeds import GetterSpec, GlobalSeed, ParamSeed, Seed
from repro.analysis.engine import AnalysisResult, TaintEngine
from repro.analysis.events import (
    BranchCondEvent,
    ScaleEvent,
    CallArgEvent,
    CallSiteRef,
    CastEvent,
    StoreEvent,
    StringCompareEvent,
    SwitchCaseEvent,
    UsageEvent,
)

__all__ = [
    "AnalysisResult",
    "BranchCondEvent",
    "CallArgEvent",
    "CallSiteRef",
    "CastEvent",
    "GetterSpec",
    "GlobalSeed",
    "ParamSeed",
    "ScaleEvent",
    "Seed",
    "StoreEvent",
    "StringCompareEvent",
    "SwitchCaseEvent",
    "TaintEngine",
    "UsageEvent",
]
