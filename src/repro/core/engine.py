"""SPEX engine: program + annotations -> constraints.

Two passes over the code, as in the paper (§2.2): the dataflow engine
first resolves each parameter's dataflow and single-parameter facts
(types, ranges); the multi-parameter passes (control dependencies,
value relationships) then work on the recorded events of each
parameter's slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import AnalysisResult, TaintEngine
from repro.core.annotations import Annotation, parse_annotations
from repro.core.constraints import ConstraintSet
from repro.core.infer_access import infer_access_controls
from repro.core.infer_controldep import infer_control_deps
from repro.core.infer_range import infer_enum_ranges, infer_numeric_ranges
from repro.core.infer_types import (
    case_sensitivity_map,
    infer_basic_types,
    infer_semantic_types,
)
from repro.core.infer_valuerel import infer_value_relationships
from repro.core.mapping import MappingResult, extract_mappings
from repro.ir import build_ir
from repro.ir.function import IRModule
from repro.knowledge import ApiKnowledge, default_knowledge
from repro.lang.program import Program
from repro.obs import span


@dataclass(frozen=True)
class SpexOptions:
    """Inference knobs; defaults follow the paper.  Only
    `SpexEngine(options=)` takes them (the ablation benchmarks sweep
    both): every campaign, checker and cache above the engine runs the
    defaults.  The taint bounds are constants of
    `repro.analysis.engine`."""

    maybelief_threshold: float = 0.75  # §2.2.4
    value_rel_transit_hops: int = 1  # §2.2.5, "one intermediate variable"


@dataclass
class SpexReport:
    """Output of one SPEX run over one subject system."""

    system: str
    constraints: ConstraintSet
    analysis: AnalysisResult
    module: IRModule
    mapping: MappingResult
    lines_of_annotation: int = 0
    parameters: set[str] = field(default_factory=set)
    case_sensitivity: dict[str, bool] = field(default_factory=dict)

    def constraint_counts(self) -> dict[str, int]:
        from repro.core.constraints import (
            AccessControlConstraint,
            BasicTypeConstraint,
            ControlDepConstraint,
            EnumRangeConstraint,
            NumericRangeConstraint,
            SemanticTypeConstraint,
            ValueRelConstraint,
        )

        counts = {
            "basic": 0,
            "semantic": 0,
            "range": 0,
            "ctrl_dep": 0,
            "value_rel": 0,
            "access_control": 0,
        }
        for c in self.constraints:
            if isinstance(c, BasicTypeConstraint):
                counts["basic"] += 1
            elif isinstance(c, SemanticTypeConstraint):
                counts["semantic"] += 1
            elif isinstance(c, (NumericRangeConstraint, EnumRangeConstraint)):
                counts["range"] += 1
            elif isinstance(c, ControlDepConstraint):
                counts["ctrl_dep"] += 1
            elif isinstance(c, ValueRelConstraint):
                counts["value_rel"] += 1
            elif isinstance(c, AccessControlConstraint):
                counts["access_control"] += 1
        return counts

    def summary_dict(self) -> dict:
        """Cache-friendly serialization: the JSON-able subset of the
        report (no IR module, no analysis state).

        This is what multi-system aggregate reports and on-disk cache
        manifests persist; the heavyweight members stay in-process.
        """
        return {
            "system": self.system,
            "lines_of_annotation": self.lines_of_annotation,
            "parameters": sorted(self.parameters),
            "case_sensitivity": dict(sorted(self.case_sensitivity.items())),
            "constraint_counts": self.constraint_counts(),
            "constraints": sorted(c.describe() for c in self.constraints),
        }


class SpexEngine:
    """Run constraint inference over one MiniC program."""

    def __init__(
        self,
        program: Program,
        annotations: str | list[Annotation],
        knowledge: ApiKnowledge | None = None,
        options: SpexOptions | None = None,
    ):
        self.program = program
        self.knowledge = knowledge or default_knowledge()
        self.options = options or SpexOptions()
        if isinstance(annotations, str):
            self.annotations, self.loa = parse_annotations(annotations)
        else:
            self.annotations = annotations
            self.loa = 0

    def run(self) -> SpexReport:
        with span("spex.ir"):
            module = build_ir(self.program)
        with span("spex.mapping"):
            mapping = extract_mappings(module, self.annotations, self.knowledge)
        engine = TaintEngine(
            module,
            mapping.seeds,
            mapping.getters,
            knowledge=self.knowledge,
        )
        with span("spex.taint") as record:
            analysis = engine.run()
            if record is not None:
                record.attrs.update(
                    passes=engine.passes,
                    analyses=engine.analyses,
                    reused_summaries=engine.reused_summaries,
                )

        constraints = ConstraintSet(system=self.program.name)
        options = self.options
        # Constraints the mapping toolkits produced directly: GUC-table
        # min/max columns and comparison-region enum ladders (the raw
        # value token is only visible there).
        for constraint in mapping.direct_constraints:
            constraints.add(constraint)
        # (span kind, pass, arguments after analysis+constraints)
        passes = (
            ("basic", infer_basic_types,
             (mapping.declared_types, self.knowledge)),
            ("semantic", infer_semantic_types, (self.knowledge,)),
            ("numeric_range", infer_numeric_ranges, (self.knowledge,)),
            ("enum_range", infer_enum_ranges, (self.knowledge,)),
            ("ctrl_dep", infer_control_deps, (options.maybelief_threshold,)),
            ("value_rel", infer_value_relationships,
             (options.value_rel_transit_hops,)),
            ("access", infer_access_controls, (self.knowledge,)),
        )
        for kind, infer, extra in passes:
            with span(f"spex.infer.{kind}"):
                infer(analysis, constraints, *extra)

        parameters = {
            p for p in analysis.parameters if not p.startswith("__SPEX_")
        }
        parameters |= mapping.declared_params
        sensitivity = dict(mapping.case_sensitivity)
        for param, sensitive in case_sensitivity_map(analysis).items():
            if param.startswith("__SPEX_"):
                continue
            sensitivity[param] = sensitivity.get(param, False) or sensitive
        return SpexReport(
            system=self.program.name,
            constraints=constraints,
            analysis=analysis,
            module=module,
            mapping=mapping,
            lines_of_annotation=self.loa,
            parameters=parameters,
            case_sensitivity=sensitivity,
        )
