"""Constraint data model.

"A constraint for a configuration parameter specifies its data type,
format, value range, dependency and correlation with other parameters,
etc., in order to configure the parameter correctly." (§1.2)

Constraints are *attributes* (about one parameter: types, ranges) or
*correlations* (about several: control dependencies, value
relationships) - §2.1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.lang import types as ct
from repro.lang.source import Location
from repro.knowledge import SemanticType, Unit


class ConstraintKind(enum.Enum):
    BASIC_TYPE = "basic type"
    SEMANTIC_TYPE = "semantic type"
    DATA_RANGE = "data range"
    CONTROL_DEP = "control dependency"
    VALUE_REL = "value relationship"
    ACCESS_CONTROL = "access control"

    def __str__(self) -> str:
        return self.value


class Behavior:
    """What the program does when a range segment is entered."""

    NONE = ""
    EXIT = "exit"
    ERROR_RETURN = "error_return"
    RESET = "reset"  # parameter silently overwritten


@dataclass(frozen=True)
class Constraint:
    """Base: all constraints name their parameter and evidence site."""

    param: str
    location: Location

    @property
    def kind(self) -> ConstraintKind:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class BasicTypeConstraint(Constraint):
    """Low-level representation: '32-bit integer', 'string', ..."""

    type: ct.CType = ct.INT

    @property
    def kind(self) -> ConstraintKind:
        return ConstraintKind.BASIC_TYPE

    def describe(self) -> str:
        if isinstance(self.type, ct.IntType):
            sign = "" if self.type.signed else "unsigned "
            return f"{self.param}: {sign}{self.type.bits}-bit integer"
        if self.type.is_string:
            return f"{self.param}: string"
        if isinstance(self.type, ct.FloatType):
            return f"{self.param}: {self.type.bits}-bit float"
        if isinstance(self.type, ct.BoolType):
            return f"{self.param}: boolean"
        return f"{self.param}: {self.type}"


@dataclass(frozen=True)
class SemanticTypeConstraint(Constraint):
    """High-level meaning: FILE, PORT, USER... optionally with a unit."""

    semantic: SemanticType = SemanticType.PATH
    unit: Unit | None = None
    case_sensitive: bool | None = None  # for string-valued semantics

    @property
    def kind(self) -> ConstraintKind:
        return ConstraintKind.SEMANTIC_TYPE

    def describe(self) -> str:
        extra = f" (unit: {self.unit})" if self.unit is not None else ""
        return f"{self.param}: {self.semantic}{extra}"


@dataclass(frozen=True)
class NumericRangeConstraint(Constraint):
    """A single valid interval with out-of-range behaviours.

    ``valid_lo``/``valid_hi`` are inclusive; None means unbounded.
    ``below_behavior``/``above_behavior`` record what the program does
    outside the interval (exit / error return / silent reset / none),
    which guides injection and silent-violation detection.
    """

    valid_lo: float | None = None
    valid_hi: float | None = None
    below_behavior: str = Behavior.NONE
    above_behavior: str = Behavior.NONE

    @property
    def kind(self) -> ConstraintKind:
        return ConstraintKind.DATA_RANGE

    def describe(self) -> str:
        lo = "-inf" if self.valid_lo is None else str(self.valid_lo)
        hi = "+inf" if self.valid_hi is None else str(self.valid_hi)
        return f"{self.param}: valid range [{lo}, {hi}]"

    def contains(self, value: float) -> bool:
        if self.valid_lo is not None and value < self.valid_lo:
            return False
        if self.valid_hi is not None and value > self.valid_hi:
            return False
        return True


@dataclass(frozen=True)
class EnumRangeConstraint(Constraint):
    """An enumerated set of acceptable values."""

    values: tuple[object, ...] = ()
    case_sensitive: bool = False
    default_behavior: str = Behavior.NONE  # what the else/default does
    silently_overruled: bool = False

    @property
    def kind(self) -> ConstraintKind:
        return ConstraintKind.DATA_RANGE

    def describe(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        sens = "case-sensitive" if self.case_sensitive else "case-insensitive"
        return f"{self.param}: one of {{{vals}}} ({sens})"

    def contains(self, value: object) -> bool:
        if isinstance(value, str) and not self.case_sensitive:
            return value.lower() in {
                str(v).lower() for v in self.values
            }
        return value in self.values


@dataclass(frozen=True)
class ControlDepConstraint(Constraint):
    """(P, V, ⋄) -> Q: parameter `param` (Q) only takes effect when
    `dep_param` (P) satisfies P ⋄ V (§2.2.4)."""

    dep_param: str = ""
    op: str = "!="
    value: object = 0
    confidence: float = 1.0

    @property
    def kind(self) -> ConstraintKind:
        return ConstraintKind.CONTROL_DEP

    def describe(self) -> str:
        return (
            f"{self.param} takes effect only when "
            f"{self.dep_param} {self.op} {self.value} "
            f"(confidence {self.confidence:.2f})"
        )


@dataclass(frozen=True)
class ValueRelConstraint(Constraint):
    """param ⋄ other_param, e.g. ft_min_word_len < ft_max_word_len."""

    op: str = "<"
    other_param: str = ""

    @property
    def kind(self) -> ConstraintKind:
        return ConstraintKind.VALUE_REL

    def describe(self) -> str:
        return f"{self.param} {self.op} {self.other_param}"

    def normalized(self) -> "ValueRelConstraint":
        """Canonical orientation (lexicographically smaller param first)."""
        if self.param <= self.other_param:
            return self
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}
        return ValueRelConstraint(
            param=self.other_param,
            location=self.location,
            op=flip[self.op],
            other_param=self.param,
        )


@dataclass(frozen=True)
class AccessControlConstraint(Constraint):
    """The program requires an access right on the object `param`
    names: a path the configured identity must be able to read or
    write, or a permission-mode value the program installs verbatim
    (`chmod`).  Shen's survey calls these ACL/ownership constraints;
    they are attributes of one parameter but their satisfaction
    depends on the *environment* (file modes, owners), not the value's
    shape alone.

    ``operation`` is ``"read"``, ``"write"`` or ``"mode"``;
    ``user_param`` names the parameter supplying the acting identity
    when the program derives it from configuration (empty when the
    program runs as its boot user).
    """

    operation: str = "read"
    user_param: str = ""

    @property
    def kind(self) -> ConstraintKind:
        return ConstraintKind.ACCESS_CONTROL

    def describe(self) -> str:
        if self.operation == "mode":
            return f"{self.param}: permission mode installed via chmod"
        actor = self.user_param if self.user_param else "the running user"
        return f"{self.param}: must be {self.operation}able by {actor}"


@dataclass
class ConstraintSet:
    """All constraints inferred for one subject system."""

    system: str
    constraints: list[Constraint] = field(default_factory=list)
    parameters: set[str] = field(default_factory=set)

    def add(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)
        self.parameters.add(constraint.param)

    def for_param(self, param: str) -> list[Constraint]:
        return [c for c in self.constraints if c.param == param]

    def basic_types(self) -> list[BasicTypeConstraint]:
        return [c for c in self.constraints if isinstance(c, BasicTypeConstraint)]

    def semantic_types(self) -> list[SemanticTypeConstraint]:
        return [c for c in self.constraints if isinstance(c, SemanticTypeConstraint)]

    def ranges(self) -> list[Constraint]:
        return [
            c
            for c in self.constraints
            if isinstance(c, (NumericRangeConstraint, EnumRangeConstraint))
        ]

    def control_deps(self) -> list[ControlDepConstraint]:
        return [c for c in self.constraints if isinstance(c, ControlDepConstraint)]

    def value_rels(self) -> list[ValueRelConstraint]:
        return [c for c in self.constraints if isinstance(c, ValueRelConstraint)]

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)
