"""The three mapping toolkits (§2.2.1, Figure 4).

Starting from interface annotations, each toolkit extracts the
parameter-to-variable mapping as key-value pairs
("parameter name", variable), realized as taint seeds:

* **structure** - reads the mapping table's initializer statically;
* **comparison** - pre-taints the parser's key/value variables, then
  pairs each ``strcmp(key, "name")`` dispatch with the value store it
  guards;
* **container**  - registers the getter so string-keyed calls taint
  their results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import (
    AnalysisResult,
    BranchCondEvent,
    GetterSpec,
    GlobalSeed,
    ParamSeed,
    StoreEvent,
    StringCompareEvent,
    TaintEngine,
)
from repro.core.annotations import (
    Annotation,
    GetterAnnotation,
    ParserAnnotation,
    StructAnnotation,
)
from repro.ir.cfg import CfgInfo
from repro.ir.function import IRFunction, IRModule
from repro.ir.values import FuncRef, Variable
from repro.knowledge import ApiKnowledge
from repro.lang import types as ct
from repro.lang.ast_nodes import Identifier, InitList, Member, StringLiteral, Unary


class MappingError(ValueError):
    pass


@dataclass
class MappingResult:
    """Seeds and getters extracted from all annotations."""

    seeds: list = field(default_factory=list)
    getters: list[GetterSpec] = field(default_factory=list)
    declared_params: set[str] = field(default_factory=set)
    conventions: set[str] = field(default_factory=set)
    # param -> declared C type of its storage variable (basic-type hint)
    declared_types: dict[str, ct.CType] = field(default_factory=dict)
    # Constraints the toolkits can produce directly: GUC-table min/max
    # columns and value-token enum ladders inside comparison regions.
    direct_constraints: list = field(default_factory=list)
    # param -> case sensitivity observed on the value token
    case_sensitivity: dict[str, bool] = field(default_factory=dict)
    # param -> unsafe transformation APIs on its parse path (the value
    # token's flow through atoi/sscanf before reaching storage)
    unsafe_parse: dict[str, set[str]] = field(default_factory=dict)


def extract_mappings(
    module: IRModule,
    annotations: list[Annotation],
    knowledge: ApiKnowledge | None = None,
) -> MappingResult:
    result = MappingResult()
    # Applier name -> its value-token pre-pass: tables that share an
    # applier (mysql's int_vars and str_vars) share one taint run.
    applier_runs: dict[str, AnalysisResult] = {}
    for ann in annotations:
        result.conventions.add(ann.convention)
        if isinstance(ann, StructAnnotation):
            _extract_struct(module, ann, result, applier_runs)
        elif isinstance(ann, ParserAnnotation):
            _extract_comparison(module, ann, result, knowledge)
        elif isinstance(ann, GetterAnnotation):
            result.getters.append(GetterSpec(ann.function, ann.par_index - 1))
        else:  # pragma: no cover - exhaustive
            raise MappingError(f"unknown annotation {ann!r}")
    return result


# -- structure-based ---------------------------------------------------------


def _extract_struct(
    module: IRModule, ann: StructAnnotation, result: MappingResult,
    applier_runs: dict[str, AnalysisResult],
):
    init = module.global_inits.get(ann.table)
    if init is None or not isinstance(init, InitList):
        raise MappingError(f"@STRUCT table {ann.table!r} has no initializer list")
    sdef = module.structs.get(ann.struct)
    table_params: list[str] = []
    for row in init.items:
        if not isinstance(row, InitList) or not row.items:
            continue
        par_item = _item(row, ann.par_index)
        var_item = _item(row, ann.var_index)
        if not isinstance(par_item, StringLiteral):
            continue  # sentinel rows ({NULL, ...}) terminate real tables
        param = par_item.value
        result.declared_params.add(param)
        table_params.append(param)
        if ann.handler_arg is not None:
            handler = _handler_name(var_item)
            if handler is None or not module.has_function(handler):
                continue
            seed = ParamSeed(param, handler, ann.handler_arg)
            result.seeds.append(seed)
            fn = module.function(handler)
            for p in fn.params:
                if p.name == ann.handler_arg and p.type is not None:
                    result.declared_types[param] = p.type
            _handler_const_store_seeds(module, handler, param, result)
            continue
        seed = _address_seed(param, var_item)
        if seed is not None:
            result.seeds.append(seed)
            result.declared_types[param] = _seed_type(module, seed)
        _lift_table_range(ann, row, param, result)
    appliers = _table_appliers(module, ann.table)
    _table_unsafe_parse(appliers, table_params, result)
    _table_value_facts(module, appliers, table_params, result, applier_runs)


_NUMERIC_UNSAFE = ("atoi", "atol", "atof", "sscanf")


def _table_appliers(module: IRModule, table: str) -> list[IRFunction]:
    """The functions that read the mapping table: generic appliers
    that parse every mapped value the same way."""
    return [
        fn
        for fn in module.functions.values()
        if any(
            isinstance(op, Variable) and op.name == table
            for inst in fn.instructions()
            for op in inst.uses()
        )
    ]


def _table_unsafe_parse(
    appliers: list[IRFunction], table_params: list[str], result: MappingResult,
) -> None:
    """Generic table appliers parse every mapped value through the
    same conversion call; an unsafe numeric API there affects all the
    table's numeric parameters (VSFTP's atoi, Table 8)."""
    from repro.ir.instructions import Call as IrCall

    numeric_params = [
        p
        for p in table_params
        if (t := result.declared_types.get(p)) is not None
        and (_strip_ptr(t).is_integer or _strip_ptr(t).is_float)
        and not t.is_string
    ]
    for fn in appliers:
        for inst in fn.instructions():
            if isinstance(inst, IrCall) and inst.callee in _NUMERIC_UNSAFE:
                for param in numeric_params:
                    result.unsafe_parse.setdefault(param, set()).add(inst.callee)


def _strip_ptr(typ: ct.CType) -> ct.CType:
    return typ.pointee if isinstance(typ, ct.PointerType) else typ


def _table_value_facts(
    module: IRModule, appliers: list[IRFunction], table_params: list[str],
    result: MappingResult, applier_runs: dict[str, AnalysisResult],
) -> None:
    """Case-sensitivity of table-applier value parsing.

    A generic applier like vsftpd's ``parse_bool_setting(value)``
    compares the raw token for every parameter of its table; the
    sensitivity of those compares is shared by all of them
    (Table 6's per-system distributions)."""
    for fn in appliers:
        string_params = [
            p.name
            for p in fn.params
            if p.type is not None and p.type.is_string and p.name != "key"
        ]
        if not string_params:
            continue
        pre = applier_runs.get(fn.name)
        if pre is None:
            seeds = [
                ParamSeed(_VAL_SENTINEL, fn.name, name) for name in string_params
            ]
            pre = applier_runs[fn.name] = TaintEngine(module, seeds).run()
        sensitive = None
        for event in pre.events_of(StringCompareEvent):
            if _VAL_SENTINEL not in event.labels.names():
                continue
            if event.const_other is None:
                continue  # table-name matching, not value parsing
            if event.const_other.lower() == event.const_other.upper():
                continue  # caseless values ("1"/"0") say nothing
            sensitive = bool(sensitive) or event.case_sensitive
        if sensitive is None:
            continue
        for param in table_params:
            current = result.case_sensitivity.get(param, False)
            result.case_sensitivity[param] = current or sensitive


def _lift_table_range(ann, row, param, result) -> None:
    """GUC-style tables carry min/max columns (§5.2); lift them."""
    from repro.core.constraints import NumericRangeConstraint
    from repro.lang.ast_nodes import IntLiteral, Unary as AstUnary

    def _const_of(index: int | None):
        if index is None:
            return None
        item = _item(row, index)
        if isinstance(item, IntLiteral):
            return item.value
        if (
            isinstance(item, AstUnary)
            and item.op == "-"
            and isinstance(item.operand, IntLiteral)
        ):
            return -item.operand.value
        return None

    lo = _const_of(ann.min_index)
    hi = _const_of(ann.max_index)
    if lo is None and hi is None:
        return
    result.direct_constraints.append(
        NumericRangeConstraint(
            param,
            row.location,
            valid_lo=lo,
            valid_hi=hi,
        )
    )


def _handler_const_store_seeds(
    module: IRModule, handler: str, param: str, result: MappingResult
) -> None:
    """A handler that decodes its argument into constants (the
    Figure 6c boolean/enum pattern) breaks the dataflow at the
    comparison; the globals it constant-stores still belong to the
    parameter's mapping."""
    from repro.ir.instructions import Assign as IrAssign
    from repro.ir.values import Const as IrConst, Variable as IrVariable

    fn = module.functions.get(handler)
    if fn is None:
        return
    for inst in fn.instructions():
        if not isinstance(inst, IrAssign):
            continue
        if not isinstance(inst.dest, IrVariable) or inst.dest.kind != "global":
            continue
        if not isinstance(inst.src, IrConst):
            continue
        seed = GlobalSeed(param, inst.dest.name)
        if seed not in result.seeds:
            result.seeds.append(seed)


def _item(row: InitList, index_1based: int):
    idx = index_1based - 1
    if 0 <= idx < len(row.items):
        return row.items[idx]
    return None


def _handler_name(item) -> str | None:
    if isinstance(item, Identifier):
        return item.name
    return None


def _address_seed(param: str, item) -> GlobalSeed | None:
    """&Var or &strukt.field initializer entries become global seeds."""
    if isinstance(item, Unary) and item.op == "&":
        target = item.operand
        if isinstance(target, Identifier):
            return GlobalSeed(param, target.name)
        if isinstance(target, Member):
            path = [target.field_name]
            base = target.base
            while isinstance(base, Member):
                path.append(base.field_name)
                base = base.base
            if isinstance(base, Identifier):
                return GlobalSeed(param, base.name, tuple(reversed(path)))
    if isinstance(item, Identifier):
        # A bare identifier in the var slot names a global directly
        # (tables of pointers store the address without '&' sugar).
        return GlobalSeed(param, item.name)
    return None


def _seed_type(module: IRModule, seed: GlobalSeed) -> ct.CType | None:
    var = module.globals.get(seed.var)
    if var is None or var.type is None:
        return None
    typ = var.type
    for field_name in seed.path:
        if isinstance(typ, ct.PointerType):
            typ = typ.pointee
        if isinstance(typ, ct.StructType):
            sdef = module.structs.get(typ.name)
            if sdef is None:
                return None
            typ = sdef.field_type(field_name)
            if typ is None:
                return None
        else:
            return None
    return typ


# -- comparison-based ---------------------------------------------------------

_PAR_SENTINEL = "__SPEX_PAR__"
_VAL_SENTINEL = "__SPEX_VAL__"


def _extract_comparison(
    module: IRModule,
    ann: ParserAnnotation,
    result: MappingResult,
    knowledge: ApiKnowledge | None,
):
    if not module.has_function(ann.function):
        raise MappingError(f"@PARSER function {ann.function!r} not found")
    seeds = [
        ParamSeed(_PAR_SENTINEL, ann.function, ann.par_var),
        ParamSeed(_VAL_SENTINEL, ann.function, ann.var_var),
    ]
    pre = TaintEngine(module, seeds, knowledge=knowledge).run()
    fn_name = ann.function
    cfg = CfgInfo.for_function(module.function(fn_name))

    branches: dict[int, BranchCondEvent] = {}
    for event in pre.events_of(BranchCondEvent):
        if event.function == fn_name and event.cond_temp >= 0:
            branches[event.cond_temp] = event

    stores = [
        e
        for e in pre.events_of(StoreEvent)
        if e.function == fn_name and _VAL_SENTINEL in e.src_labels.names()
    ]

    const_stores = [
        e
        for e in pre.events_of(StoreEvent)
        if e.function == fn_name and e.src_is_const
    ]
    value_compares = [
        e
        for e in pre.events_of(StringCompareEvent)
        if e.function == fn_name
        and _VAL_SENTINEL in e.labels.names()
        and e.const_other is not None
    ]

    for compare in pre.events_of(StringCompareEvent):
        if compare.function != fn_name:
            continue
        if _PAR_SENTINEL not in compare.labels.names():
            continue
        if compare.const_other is None:
            continue
        branch = branches.get(compare.dest_temp)
        if branch is None:
            continue
        eq_edge = _equality_edge(branch)
        if eq_edge is None:
            continue
        region = cfg.region_of_edge(branch.block, eq_edge)
        param = compare.const_other
        targets: list[tuple[str, str, tuple[str, ...]]] = []
        for store in stores:
            if store.block not in region:
                continue
            scope, name, path = store.target
            if scope != "global":
                continue
            targets.append((scope, name, path))
        if not targets:
            # Figure 6(c)-style decoding: the value dies at strcmp and
            # a constant lands in the variable - the assignment in the
            # matched branch still identifies the mapping.
            for store in const_stores:
                if store.block not in region:
                    continue
                scope, name, path = store.target
                if scope != "global":
                    continue
                targets.append((scope, name, path))
                break
        for scope, name, path in targets:
            result.declared_params.add(param)
            seed = GlobalSeed(param, name, path)
            result.seeds.append(seed)
            result.declared_types[param] = _seed_type(module, seed)
        _region_enum_facts(
            pre, cfg, branches, param, region, value_compares,
            const_stores, set(targets), result,
        )
        _region_unsafe_parse(pre, fn_name, param, region, result)


def _region_unsafe_parse(
    pre, fn_name: str, param: str, region: set[str], result
) -> None:
    """Unsafe conversions of the value token inside one dispatch
    region belong to that region's parameter (Squid's sscanf %i).
    Block labels repeat across functions, so only the parser's own
    events are matched against its region."""
    from repro.analysis.events import CallArgEvent

    for event in pre.events_of(CallArgEvent):
        if event.function != fn_name or event.block not in region:
            continue
        if _VAL_SENTINEL not in event.labels.names():
            continue
        if event.callee not in _NUMERIC_UNSAFE:
            continue
        result.unsafe_parse.setdefault(param, set()).add(event.callee)


def _region_enum_facts(
    pre,
    cfg: CfgInfo,
    branches,
    param: str,
    region: set[str],
    value_compares,
    const_stores,
    targets: set,
    result: MappingResult,
) -> None:
    """Enum constraints from value-token strcmp ladders inside one
    parameter's dispatch region (the only place the raw token of a
    comparison-mapped parameter is visible)."""
    from repro.core.constraints import Behavior, EnumRangeConstraint

    in_region = [c for c in value_compares if c.block in region]
    if not in_region:
        return
    values = tuple(dict.fromkeys(c.const_other for c in in_region))
    case_sensitive = any(c.case_sensitive for c in in_region)
    result.case_sensitivity[param] = case_sensitive
    # The final else of the ladder: non-match region of the last
    # compare; a constant store to a mapped target there = overrule.
    last = max(in_region, key=lambda c: (c.location.line, c.location.column))
    behavior = Behavior.NONE
    branch = branches.get(last.dest_temp)
    if branch is not None:
        neq_edge = _nonmatch_edge_of(branch)
        if neq_edge is not None:
            else_region = cfg.region_of_edge(branch.block, neq_edge)
            for store in const_stores:
                if store.block in else_region and store.target in targets:
                    behavior = Behavior.RESET
            if behavior == Behavior.NONE:
                fn = pre.module.function(last.function)
                from repro.ir.instructions import Call as IrCall

                for label in else_region:
                    blk = fn.blocks.get(label)
                    if blk is None:
                        continue
                    for inst in blk.instructions:
                        if isinstance(inst, IrCall) and inst.callee in (
                            "exit",
                            "abort",
                            "_exit",
                        ):
                            behavior = Behavior.EXIT
    result.direct_constraints.append(
        EnumRangeConstraint(
            param,
            in_region[0].location,
            values=values,
            case_sensitive=case_sensitive,
            default_behavior=behavior,
            silently_overruled=behavior == Behavior.RESET,
        )
    )


def _nonmatch_edge_of(branch: BranchCondEvent) -> str | None:
    if branch.right.is_const and branch.right.const == 0:
        if branch.op == "==":
            return branch.false_label
        if branch.op == "!=":
            return branch.true_label
    return None


def _equality_edge(branch: BranchCondEvent) -> str | None:
    """Which edge means 'strcmp returned 0' (the names matched)?"""
    if branch.right.is_const and branch.right.const == 0:
        if branch.op == "==":
            return branch.true_label
        if branch.op == "!=":
            return branch.false_label
        if branch.op == "<=":  # strcmp(a,b) <= 0 is not equality; skip
            return None
    return None
