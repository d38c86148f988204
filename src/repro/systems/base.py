"""Subject-system descriptor: everything the tools need to analyse,
run, and judge one system.

* sources + annotations       -> SPEX
* dialect + default config    -> SPEX-INJ's AR
* functional tests + oracles  -> SPEX-INJ's testing loop
* effective-value locations   -> silent-violation detection
* manual                      -> undocumented-constraint detection
* ground truth                -> Table 12 accuracy

Usage - fetch a registered system and drive the tools directly::

    from repro.inject import Campaign, InjectionHarness
    from repro.systems import get_system

    system = get_system("vsftpd")
    program = system.program()          # parse-and-link, memoized
    template = system.template_ar()     # ConfErr-style config AR

    assert InjectionHarness(system).baseline_ok()
    report = Campaign(system).run()     # the system's Table 5 row

Every system is declared the same way: each configuration parameter
is stated *once* as a `ParamSpec` row (decoder slug, mapped variable,
manual excerpt, truth entries) beside system-wide data (sources,
dialect, tests, OS fixtures).  The per-parameter tables the tools
read - `decoders`, `effective_locations`, `manual`, `ground_truth` -
are derived from the rows on construction and cannot be passed in.
Systems register a builder with `repro.systems.registry.register`
and are discovered lazily; see `docs/ADDING_A_SYSTEM.md` for the
full walkthrough of every field below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.accuracy import TruthEntry
from repro.inject.ar import ConfigAR, ConfigDialect
from repro.knowledge.apis import ApiSpec
from repro.lang.program import Program
from repro.runtime.os_model import EmulatedOS


@dataclass
class FunctionalTest:
    """One functional test: traffic plus an oracle over the responses.

    `duration` is the nominal wall-clock cost used by the paper's
    shortest-test-first scheduling optimisation.
    """

    name: str
    requests: list[str]
    oracle: Callable[[list[str]], bool]
    duration: float = 1.0


# Decoders turn the *injected string* into the value a user intends;
# silent violation = effective value differs without notification.


def decode_int(text: str) -> object:
    try:
        return int(text.strip())
    except ValueError:
        return text.strip()


_SIZE_SUFFIXES = {
    "k": 1024,
    "kb": 1024,
    "m": 1024**2,
    "mb": 1024**2,
    "g": 1024**3,
    "gb": 1024**3,
}


def decode_size(text: str) -> object:
    """User intent for size values: understands K/M/G suffixes."""
    raw = text.strip().lower()
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            try:
                return int(number) * _SIZE_SUFFIXES[suffix]
            except ValueError:
                return text
    return decode_int(text)


_TRUE_WORDS = {"on", "yes", "true", "enable", "enabled", "1"}
_FALSE_WORDS = {"off", "no", "false", "disable", "disabled", "0"}


def decode_bool(text: str) -> object:
    raw = text.strip().lower()
    if raw in _TRUE_WORDS:
        return 1
    if raw in _FALSE_WORDS:
        return 0
    return text


def decode_string(text: str) -> object:
    return text.strip()


def decode_time_seconds(text: str) -> object:
    return decode_int(text)


# Decoder slugs: declarative data instead of function references, so a
# parameter row is serialisable and comparable.
DECODERS: dict[str, Callable[[str], object]] = {
    "bool": decode_bool,
    "int": decode_int,
    "size": decode_size,
    "string": decode_string,
    "time": decode_time_seconds,
}

# `ParamSpec.var` sentinel: "same name as the parameter".  Distinct
# from None, which declares *no* effective location (the harness then
# skips silent-violation comparison for that parameter - some systems
# deliberately leave a parameter unmapped).
SAME_AS_NAME = ""


@dataclass(frozen=True)
class ParamSpec:
    """One configuration parameter, declared once.

    * ``decode`` - slug into `DECODERS`: how a *user* reads the value.
    * ``var`` - the global variable the effective value lives in
      after parsing (`SAME_AS_NAME` maps the parameter to the variable
      of the same name; None opts out of effective-value tracking).
    * ``manual`` - the documentation excerpt, or None for parameters
      that are undocumented by design (they feed the undocumented-
      constraint analysis).
    * ``truth`` - this parameter's ground-truth entries for Table 12
      accuracy scoring.  Truth is independent of the decoder: a
      boolean parameter may decode via ``bool`` while its truth entry
      says the stored representation is an int.
    """

    name: str
    decode: str = "string"
    var: str | None = SAME_AS_NAME
    manual: str | None = None
    truth: tuple[TruthEntry, ...] = ()


@dataclass(frozen=True)
class OsDir:
    """A directory the system expects in its emulated world."""

    path: str
    mode: int = 0o755
    owner: str = "root"


@dataclass(frozen=True)
class OsFile:
    """An empty root-owned file the system expects in its emulated
    world."""

    path: str
    mode: int = 0o644


@dataclass
class SubjectSystem:
    """A complete evaluated system, declared as `ParamSpec` rows."""

    name: str
    display_name: str
    description: str
    sources: dict[str, str]
    annotations: str
    dialect: ConfigDialect
    config_path: str
    default_config: str
    params: list[ParamSpec] = field(default_factory=list)
    tests: list[FunctionalTest] = field(default_factory=list)
    # Cross-parameter truth (control deps, value relationships) that
    # belongs to no single `ParamSpec` row.
    extra_truth: list[TruthEntry] = field(default_factory=list)
    os_dirs: list[OsDir] = field(default_factory=list)
    os_files: list[OsFile] = field(default_factory=list)
    # Per-system mistake-kind weights for the fleet corpus
    # (`repro.checker.corpus.mistake_mix`); None keeps the
    # study-derived marginals.
    mistake_mix: dict[str, float] | None = None
    custom_knowledge: list[ApiSpec] = field(default_factory=list)
    proprietary: bool = False
    # Parameters whose count the vendor keeps confidential (Storage-A).
    confidential_counts: bool = False

    # Derived from `params` (+ `extra_truth`) in __post_init__.
    # param -> decoder from injected string to intended value
    decoders: dict[str, Callable[[str], object]] = field(init=False)
    # param -> (global var, field path) for post-run effective values
    effective_locations: dict[str, tuple[str, tuple[str, ...]]] = field(
        init=False
    )
    manual: dict[str, str] = field(init=False)
    ground_truth: list[TruthEntry] = field(init=False)

    _program: Program | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.decoders = {}
        self.effective_locations = {}
        self.manual = {}
        self.ground_truth = []
        for param in self.params:
            if param.name in self.decoders:
                raise ValueError(
                    f"{self.name}: duplicate ParamSpec {param.name!r}"
                )
            if param.decode not in DECODERS:
                raise ValueError(
                    f"{self.name}: {param.name!r} names unknown decoder "
                    f"{param.decode!r}; known: {', '.join(sorted(DECODERS))}"
                )
            self.decoders[param.name] = DECODERS[param.decode]
            if param.var is not None:
                var = param.var if param.var else param.name
                self.effective_locations[param.name] = (var, ())
            if param.manual is not None:
                self.manual[param.name] = param.manual
            self.ground_truth.extend(param.truth)
        self.ground_truth.extend(self.extra_truth)
        if self.mistake_mix is not None:
            # Weights are relative (normalised at sampling time).
            cleaned = {
                kind: float(weight)
                for kind, weight in self.mistake_mix.items()
                if float(weight) > 0
            }
            if not cleaned:
                raise ValueError(
                    f"{self.name}: mistake mix needs at least one "
                    "positive weight"
                )
            self.mistake_mix = cleaned

    def program(self) -> Program:
        """Parse-and-link, memoized."""
        if self._program is None:
            self._program = Program.from_sources(self.sources, name=self.name)
        return self._program

    def template_ar(self) -> ConfigAR:
        return ConfigAR.parse(self.default_config, self.dialect)

    def loc(self) -> int:
        return self.program().count_code_lines()

    def make_os(self) -> EmulatedOS:
        os_model = EmulatedOS()
        # Standard fixtures every system's injection campaign relies on:
        # a directory where a file is expected, a plain file where a
        # directory is expected, and one occupied port.
        os_model.add_dir("/data/injected_dir")
        os_model.add_file("/data/injected_file", "not a directory\n")
        # A root-only directory: the guaranteed-denied target for
        # access-control mistake injection (non-root identities can
        # neither read nor write it).
        os_model.add_dir("/data/restricted_dir", mode=0o700)
        os_model.occupy_port(3130)
        for entry in self.os_dirs:
            os_model.add_dir(entry.path, mode=entry.mode, owner=entry.owner)
        for entry in self.os_files:
            os_model.add_file(entry.path, mode=entry.mode)
        return os_model

    def install_config(self, os_model: EmulatedOS, text: str) -> None:
        os_model.add_file(self.config_path, text)

    def decoder_for(self, param: str) -> Callable[[str], object]:
        return self.decoders.get(param, decode_string)
