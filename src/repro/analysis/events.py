"""Events: facts observed on tainted values during dataflow analysis.

Each event carries the labels (parameter names) present on the value,
the syntactic site (function/block/location), and the interprocedural
call chain through which the analysis reached it - the chain is what
lets control-dependency inference include conditions guarding call
sites (the paper's PostgreSQL ``fsync``/``commit_siblings`` example,
Figure 3e).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import types as ct
from repro.lang.source import Location


@dataclass(frozen=True)
class CallSiteRef:
    """One hop of the interprocedural context."""

    caller: str
    block: str
    location: Location


CallChain = tuple[CallSiteRef, ...]


@dataclass(frozen=True)
class Labels:
    """Parameter labels with copy-hop counts (name -> hops).

    Hops count copies through *named* variables; the paper's value
    relationship inference only transits one intermediate variable
    (§2.2.5), which inference passes enforce via this count.
    """

    entries: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, mapping: dict[str, int]) -> "Labels":
        if not mapping:
            return _NO_LABELS
        return cls(tuple(sorted(mapping.items())))

    def to_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def names(self) -> set[str]:
        return {name for name, _ in self.entries}

    def within_hops(self, max_hops: int) -> set[str]:
        return {name for name, hops in self.entries if hops <= max_hops}

    def __bool__(self) -> bool:
        return bool(self.entries)


_NO_LABELS = Labels()


@dataclass(frozen=True)
class OperandInfo:
    """One side of a comparison: labels + syntactic origin."""

    labels: Labels
    origin: tuple[str, str, tuple[str, ...]] | None  # (scope, name, path)
    const: object | None = None
    is_const: bool = False


class Event:
    """Base class (dataclasses don't inherit fields here; shared
    attributes are duplicated per event type for frozen hashing)."""


@dataclass(frozen=True)
class CastEvent(Event):
    """A tainted value was cast (explicitly) to a type."""

    function: str
    block: str
    location: Location
    labels: Labels
    type: ct.CType
    chain: CallChain = ()


@dataclass(frozen=True)
class CallArgEvent(Event):
    """A tainted value reached argument `arg_index` of `callee`."""

    function: str
    block: str
    location: Location
    labels: Labels
    callee: str
    arg_index: int
    other_const_args: tuple[tuple[int, object], ...] = ()
    chain: CallChain = ()


@dataclass(frozen=True)
class StringCompareEvent(Event):
    """strcmp-family call with a tainted side and a constant side."""

    function: str
    block: str
    location: Location
    labels: Labels
    callee: str
    const_other: str | None
    case_sensitive: bool
    dest_temp: int = -1
    chain: CallChain = ()


@dataclass(frozen=True)
class BranchCondEvent(Event):
    """A conditional branch whose comparison involves tainted data."""

    function: str
    block: str
    location: Location
    op: str
    left: OperandInfo
    right: OperandInfo
    true_label: str
    false_label: str
    cond_temp: int = -1
    chain: CallChain = ()


@dataclass(frozen=True)
class SwitchCaseEvent(Event):
    """A switch over a tainted subject."""

    function: str
    block: str
    location: Location
    labels: Labels
    cases: tuple[tuple[object, str], ...]
    default_label: str | None
    chain: CallChain = ()


@dataclass(frozen=True)
class StoreEvent(Event):
    """A store whose target or source carries labels."""

    function: str
    block: str
    location: Location
    target: tuple[str, str, tuple[str, ...]]  # (scope, name, path)
    target_labels: Labels
    src_labels: Labels
    src_const: object | None = None
    src_is_const: bool = False
    chain: CallChain = ()


@dataclass(frozen=True)
class ScaleEvent(Event):
    """A tainted value was multiplied/divided by a constant.

    Unit inference combines this with the unit of the API the scaled
    value reaches: ``value * 1024`` flowing into a BYTES-unit API means
    the parameter itself is in KBytes (Figure 6b's MaxMemFree)."""

    function: str
    block: str
    location: Location
    labels: Labels
    factor: float  # multiplier applied to the parameter value
    dest_temp: int = -1
    chain: CallChain = ()


@dataclass(frozen=True)
class UsageEvent(Event):
    """A *usage* in the thin-slicing sense (paper §2.2.4): branches,
    arithmetic, and system/library-call arguments - copies and calls to
    user functions are not usage."""

    function: str
    block: str
    location: Location
    labels: Labels
    kind: str  # "branch" | "arith" | "libcall"
    chain: CallChain = ()


@dataclass
class EventLog:
    """Deduplicating accumulator for events, in first-seen order, with
    a per-class index so `of_type` does not scan the whole log."""

    events: dict[object, Event] = field(default_factory=dict)
    _by_class: dict[type, list[Event]] = field(default_factory=dict, repr=False)

    def add(self, event: Event) -> bool:
        events = self.events
        size = len(events)
        # One hash per event: frozen events hash every field each time.
        events.setdefault(event, event)
        if len(events) == size:
            return False
        self._by_class.setdefault(type(event), []).append(event)
        return True

    def of_type(self, cls) -> list:
        """Events of one concrete event class, in first-seen order."""
        return list(self._by_class.get(cls, ()))

    def __len__(self) -> int:
        return len(self.events)
