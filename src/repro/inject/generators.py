"""Misconfiguration generation rules (Table 2).

"Every generation rule is implemented as a plug-in, which can be
extended for customization."  Each plug-in maps one constraint kind to
erroneous settings:

=============  =====================================================
Basic type     values with invalid basic types (garbage, overflow,
               floats for ints, unit-suffixed numbers)
Semantic type  invalid values specific to each semantic type
Range          values exactly covering out of (and just inside) the
               inferred range
Control dep.   (P ⋄ V) ∧ Q for (P, V, ⋄) -> Q
Value relat.   settings violating the relationship
=============  =====================================================

Usage - generate misconfigurations for one system and group them into
per-parameter batches for the harness::

    from repro.inject.generators import batch_by_param, default_generators
    from repro.systems import get_system

    system = get_system("apache")
    constraints = ...  # a SpexReport's ConstraintSet
    registry = default_generators()
    flat = registry.generate(constraints, system.template_ar())
    batches = batch_by_param(flat)
    # every batch covers exactly one primary parameter:
    assert all(m.primary_param == b.param for b in batches for m in b)

Custom rules subclass :class:`GeneratorPlugin`, implement
``applies_to`` and ``generate``, and join the roster in
:func:`default_generators` - "every generation rule is implemented as
a plug-in, which can be extended for customization".  Every campaign
runs that one roster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import (
    AccessControlConstraint,
    BasicTypeConstraint,
    Constraint,
    ControlDepConstraint,
    EnumRangeConstraint,
    NumericRangeConstraint,
    SemanticTypeConstraint,
    ValueRelConstraint,
)
from repro.inject.ar import ConfigAR
from repro.knowledge import SemanticType, Unit
from repro.lang import types as ct


@dataclass(frozen=True)
class Misconfiguration:
    """One injected configuration error (possibly multi-parameter)."""

    settings: tuple[tuple[str, str], ...]  # (param, value) pairs
    constraint: Constraint
    rule: str
    description: str

    @property
    def primary_param(self) -> str:
        return self.settings[0][0]


@dataclass(frozen=True)
class MisconfigurationBatch:
    """All misconfigurations targeting one primary parameter.

    The harness evaluates a batch as a unit (one template parse, one
    verdict list), and the pipeline schedules whole batches, so
    per-injection overhead is paid once per parameter instead of once
    per value.
    """

    param: str
    misconfigurations: tuple[Misconfiguration, ...]

    def __len__(self) -> int:
        return len(self.misconfigurations)

    def __iter__(self):
        return iter(self.misconfigurations)


def batch_by_param(
    misconfs: list[Misconfiguration],
) -> list[MisconfigurationBatch]:
    """Group misconfigurations by primary parameter.

    Grouping is stable: batches appear in first-seen parameter order
    and each batch preserves the input order of its members, so a
    batched campaign tests the same injections as the flat loop and
    reports them parameter-by-parameter.
    """
    grouped: dict[str, list[Misconfiguration]] = {}
    for misconf in misconfs:
        grouped.setdefault(misconf.primary_param, []).append(misconf)
    return [
        MisconfigurationBatch(param, tuple(members))
        for param, members in grouped.items()
    ]


class GeneratorPlugin:
    """Base class: one Table 2 rule."""

    rule_name = "base"

    def applies_to(self, constraint: Constraint) -> bool:
        raise NotImplementedError

    def generate(
        self, constraint: Constraint, template: ConfigAR
    ) -> list[Misconfiguration]:
        raise NotImplementedError

    def _make(self, constraint, description, *settings) -> Misconfiguration:
        return Misconfiguration(
            settings=tuple(settings),
            constraint=constraint,
            rule=self.rule_name,
            description=description,
        )


class BasicTypeViolationPlugin(GeneratorPlugin):
    rule_name = "basic-type"

    def applies_to(self, constraint):
        return isinstance(constraint, BasicTypeConstraint)

    def generate(self, constraint, template):
        typ = constraint.type
        param = constraint.param
        out = []
        if isinstance(typ, ct.IntType):
            out.append(
                self._make(
                    constraint,
                    f"non-numeric value for integer parameter {param}",
                    (param, "fast"),
                )
            )
            overflow = (1 << typ.bits) + (1 << (typ.bits - 1)) + 424242
            out.append(
                self._make(
                    constraint,
                    f"overflows the {typ.bits}-bit storage of {param}",
                    (param, str(overflow)),
                )
            )
            out.append(
                self._make(
                    constraint,
                    f"floating-point value for integer parameter {param}",
                    (param, "12.5"),
                )
            )
            out.append(
                self._make(
                    constraint,
                    f"unit-suffixed value for plain integer parameter {param}",
                    (param, "9G"),
                )
            )
        elif isinstance(typ, ct.BoolType):
            out.append(
                self._make(
                    constraint,
                    f"non-boolean value for switch parameter {param}",
                    (param, "maybe"),
                )
            )
        elif isinstance(typ, ct.FloatType):
            out.append(
                self._make(
                    constraint,
                    f"non-numeric value for float parameter {param}",
                    (param, "quick"),
                )
            )
        return out


class ExtremeValuePlugin(GeneratorPlugin):
    """Type-valid but implausibly extreme values for integer
    parameters: zero and a very large count.

    These expose hard-coded limits that never made it into a check -
    the paper's Figure 2 (listener-threads > 16 segfault) and
    Figure 7(a)/(b) (history_size = 0 crash, ThreadLimit = 100000
    abort) are all of this shape.
    """

    rule_name = "extreme-value"

    def applies_to(self, constraint):
        return isinstance(constraint, BasicTypeConstraint) and isinstance(
            constraint.type, ct.IntType
        )

    def generate(self, constraint, template):
        param = constraint.param
        return [
            self._make(
                constraint,
                f"implausibly large value for {param}",
                (param, "100000"),
            ),
            self._make(
                constraint,
                f"zero value for {param}",
                (param, "0"),
            ),
        ]


class SemanticTypeViolationPlugin(GeneratorPlugin):
    rule_name = "semantic-type"

    def applies_to(self, constraint):
        return isinstance(constraint, SemanticTypeConstraint)

    def generate(self, constraint, template):
        param = constraint.param
        semantic = constraint.semantic
        out = []
        if semantic is SemanticType.FILE:
            out.append(
                self._make(
                    constraint,
                    f"directory path where {param} expects a file",
                    (param, "/data/injected_dir"),
                )
            )
            out.append(
                self._make(
                    constraint,
                    f"nonexistent path for file parameter {param}",
                    (param, "/no/such/file"),
                )
            )
        elif semantic in (SemanticType.DIRECTORY, SemanticType.PATH):
            out.append(
                self._make(
                    constraint,
                    f"file path where {param} expects a directory",
                    (param, "/data/injected_file"),
                )
            )
            out.append(
                self._make(
                    constraint,
                    f"nonexistent path for {param}",
                    (param, "/no/such/dir"),
                )
            )
        elif semantic is SemanticType.PORT:
            out.append(
                self._make(
                    constraint,
                    f"already-occupied port for {param}",
                    (param, "3130"),
                )
            )
            out.append(
                self._make(
                    constraint,
                    f"out-of-range port number for {param}",
                    (param, "70000"),
                )
            )
        elif semantic is SemanticType.IP_ADDRESS:
            out.append(
                self._make(
                    constraint,
                    f"malformed IP address for {param}",
                    (param, "999.1.2.3"),
                )
            )
        elif semantic is SemanticType.HOSTNAME:
            out.append(
                self._make(
                    constraint,
                    f"unresolvable hostname for {param}",
                    (param, "no-such-host.invalid"),
                )
            )
        elif semantic is SemanticType.USER:
            out.append(
                self._make(
                    constraint,
                    f"nonexistent user for {param}",
                    (param, "no_such_user_xyz"),
                )
            )
        elif semantic is SemanticType.GROUP:
            out.append(
                self._make(
                    constraint,
                    f"nonexistent group for {param}",
                    (param, "no_such_group_xyz"),
                )
            )
        elif semantic is SemanticType.TIME:
            out.extend(self._time_confusions(constraint, template))
        elif semantic is SemanticType.SIZE:
            out.extend(self._size_confusions(constraint, template))
        return out

    def _time_confusions(self, constraint, template):
        """Values plausible in a *different* time unit: a '60s' intent
        written where the parameter means minutes/ms produces hangs or
        near-zero timeouts."""
        unit = constraint.unit or Unit.SECONDS
        param = constraint.param
        out = []
        if unit in (Unit.SECONDS, Unit.MINUTES, Unit.HOURS):
            out.append(
                self._make(
                    constraint,
                    f"millisecond-scale value for {param} (unit is {unit})",
                    (param, "90000"),
                )
            )
        else:
            out.append(
                self._make(
                    constraint,
                    f"second-scale value for {param} (unit is {unit})",
                    (param, "30"),
                )
            )
        return out

    def _size_confusions(self, constraint, template):
        unit = constraint.unit or Unit.BYTES
        param = constraint.param
        return [
            self._make(
                constraint,
                f"unit-suffixed size for {param} (unit is {unit})",
                (param, "512MB"),
            ),
            self._make(
                constraint,
                f"negative size for {param}",
                (param, "-1"),
            ),
        ]


class RangeViolationPlugin(GeneratorPlugin):
    rule_name = "data-range"

    def applies_to(self, constraint):
        return isinstance(constraint, (NumericRangeConstraint, EnumRangeConstraint))

    def generate(self, constraint, template):
        if isinstance(constraint, NumericRangeConstraint):
            return self._numeric(constraint)
        return self._enum(constraint)

    def _numeric(self, constraint):
        param = constraint.param
        out = []
        if constraint.valid_lo is not None:
            out.append(
                self._make(
                    constraint,
                    f"just below the valid range of {param}",
                    (param, str(int(constraint.valid_lo) - 1)),
                )
            )
        if constraint.valid_hi is not None:
            out.append(
                self._make(
                    constraint,
                    f"just above the valid range of {param}",
                    (param, str(int(constraint.valid_hi) + 1)),
                )
            )
            out.append(
                self._make(
                    constraint,
                    f"far above the valid range of {param}",
                    (param, str(int(constraint.valid_hi) * 40 + 1000)),
                )
            )
        return out

    def _enum(self, constraint):
        param = constraint.param
        out = [
            self._make(
                constraint,
                f"value outside the accepted set of {param}",
                (param, "unsupported_choice"),
            )
        ]
        # Case alternation of a valid value probes case-sensitivity
        # vulnerabilities (the Figure 1 InitiatorName problem).
        for value in constraint.values:
            text = str(value)
            if isinstance(value, str) and text.lower() != text.upper():
                out.append(
                    self._make(
                        constraint,
                        f"case-altered valid value for {param}",
                        (param, text.upper() if text != text.upper() else text.lower()),
                    )
                )
                break
        return out


class ControlDepViolationPlugin(GeneratorPlugin):
    rule_name = "control-dependency"

    def applies_to(self, constraint):
        return isinstance(constraint, ControlDepConstraint)

    def generate(self, constraint, template):
        # Generate (P ⋄ V) ∧ Q: disable P (violate the dependency
        # condition) while explicitly configuring Q.
        p_value = self._violating_value(
            constraint.op, constraint.value, template.get(constraint.dep_param)
        )
        if p_value is None:
            return []
        q_value = self._non_default(constraint.param, template)
        # Q first: the vulnerability is attributed to the ignored
        # parameter, not the gate.
        return [
            self._make(
                constraint,
                f"{constraint.param} set while {constraint.dep_param} "
                f"{_negate_str(constraint.op)} {constraint.value}",
                (constraint.param, q_value),
                (constraint.dep_param, p_value),
            )
        ]

    # Boolean config words grouped by family: the violating value must
    # use the spelling the system actually parses.
    _FALSE_OF = {"on": "off", "yes": "NO", "true": "false", "1": "0"}
    _TRUE_OF = {"off": "on", "no": "YES", "false": "true", "0": "1"}

    def _violating_value(self, op: str, value, current: str | None) -> str | None:
        """A P-value that makes `P op value` FALSE, spelled the way the
        template spells booleans."""
        if not isinstance(value, (int, float)):
            return None
        current_low = (current or "").strip().lower()
        if op == "!=" and value == 0:
            # Need P false/zero.
            if current_low in self._FALSE_OF:
                return self._FALSE_OF[current_low]
            if current_low in self._TRUE_OF:
                return current  # already a false word
            return "0"
        if op == "==" and value == 0:
            # Need P non-zero.
            if current_low in self._TRUE_OF:
                return self._TRUE_OF[current_low]
            if current_low in self._FALSE_OF:
                return current
            return "1"
        if op == "!=":
            return str(value)
        if op == "==":
            return str(int(value) + 1)
        if op == ">":
            return str(int(value))
        if op == ">=":
            return str(int(value) - 1)
        if op == "<":
            return str(int(value))
        if op == "<=":
            return str(int(value) + 1)
        return None

    def _non_default(self, param: str, template: ConfigAR) -> str:
        current = template.get(param)
        if current is None:
            return "7"
        lowered = current.strip().lower()
        flips = {
            "yes": "NO", "no": "YES", "on": "off", "off": "on",
            "true": "false", "false": "true",
        }
        if lowered in flips:
            return flips[lowered]
        try:
            return str(int(current) + 3)
        except ValueError:
            return current + "_altered" if current else "enabled"


class ValueRelViolationPlugin(GeneratorPlugin):
    rule_name = "value-relationship"

    def applies_to(self, constraint):
        return isinstance(constraint, ValueRelConstraint)

    def generate(self, constraint, template):
        p, op, q = constraint.param, constraint.op, constraint.other_param
        base = self._base_value(q, template)
        if op in ("<", "<="):
            p_value, q_value = base + 15, base
        elif op in (">", ">="):
            p_value, q_value = base, base + 15
        else:
            return []
        return [
            self._make(
                constraint,
                f"violates {p} {op} {q}",
                (p, str(p_value)),
                (q, str(q_value)),
            )
        ]

    def _base_value(self, param: str, template: ConfigAR) -> int:
        current = template.get(param)
        if current is not None:
            try:
                return int(current)
            except ValueError:
                pass
        return 10


class AccessControlViolationPlugin(GeneratorPlugin):
    """ACL mistakes: point a path the program must read or write at
    the standard root-only fixture (`/data/restricted_dir` from
    `SubjectSystem.make_os`), and hand `chmod`-installed mode
    parameters values no permission grammar accepts.  When the acting
    identity is configuration too, the identity parameter is set to an
    unprivileged user in the same injection - the paired mistake real
    ACL breakage consists of."""

    rule_name = "access-control"

    RESTRICTED_PATH = "/data/restricted_dir"
    UNPRIVILEGED_USER = "nobody"

    def applies_to(self, constraint):
        return isinstance(constraint, AccessControlConstraint)

    def generate(self, constraint, template):
        param = constraint.param
        if constraint.operation == "mode":
            return [
                self._make(
                    constraint,
                    f"non-octal permission mode for {param}",
                    (param, "899"),
                ),
                self._make(
                    constraint,
                    f"non-numeric permission mode for {param}",
                    (param, "rwxr"),
                ),
            ]
        settings = [(param, self.RESTRICTED_PATH)]
        actor = "the running user"
        if constraint.user_param:
            settings.append(
                (constraint.user_param, self.UNPRIVILEGED_USER)
            )
            actor = f"{constraint.user_param}={self.UNPRIVILEGED_USER}"
        return [
            self._make(
                constraint,
                f"{param} points at a path {actor} cannot "
                f"{constraint.operation}",
                *settings,
            )
        ]


@dataclass
class GeneratorRegistry:
    """The plug-in set; `default_generators()` builds the one roster
    every campaign runs."""

    plugins: list[GeneratorPlugin]

    def generate(
        self, constraints, template: ConfigAR
    ) -> list[Misconfiguration]:
        out: list[Misconfiguration] = []
        seen: set[tuple] = set()
        for constraint in constraints:
            for plugin in self.plugins:
                if not plugin.applies_to(constraint):
                    continue
                for misconf in plugin.generate(constraint, template):
                    key = (misconf.settings, misconf.rule)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(misconf)
        return out


def default_generators() -> GeneratorRegistry:
    return GeneratorRegistry(
        [
            BasicTypeViolationPlugin(),
            ExtremeValuePlugin(),
            SemanticTypeViolationPlugin(),
            RangeViolationPlugin(),
            ControlDepViolationPlugin(),
            ValueRelViolationPlugin(),
            AccessControlViolationPlugin(),
        ]
    )


def _negate_str(op: str) -> str:
    return {"!=": "==", "==": "!=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}[op]
