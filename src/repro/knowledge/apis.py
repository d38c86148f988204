"""The API fact table.

Every entry answers: if a tainted value reaches argument *i* of this
call, what do we learn?  (semantic type, unit); is the call a string
comparison and is it case-sensitive; is it an unsafe transformation;
does it terminate the process; what basic type does its return carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import types as ct
from repro.knowledge.semantic import SemanticType, Unit


@dataclass(frozen=True)
class ArgFact:
    """Facts about one argument position of an API."""

    index: int
    semantic: SemanticType | None = None
    unit: Unit | None = None


@dataclass
class ApiSpec:
    """Everything SPEX knows about one library function."""

    name: str
    args: list[ArgFact] = field(default_factory=list)
    return_semantic: SemanticType | None = None
    return_basic: ct.CType | None = None
    comparison: bool = False
    case_sensitive: bool | None = None
    unsafe_transform: bool = False
    safe_transform: bool = False
    exits_process: bool = False
    logs_message: bool = False
    # Arguments from this index on are out-parameters receiving the
    # (converted) input: sscanf's targets, strtol's end pointer.
    out_args_from: int = -1
    # The access right this call asserts on its path argument ("read"
    # / "write" / "mode"): drives access-control constraint inference.
    access_op: str = ""

    def arg_fact(self, index: int) -> ArgFact | None:
        for fact in self.args:
            if fact.index == index:
                return fact
        return None


class ApiKnowledge:
    """Lookup table of ApiSpec, extensible with proprietary APIs."""

    def __init__(self, specs: list[ApiSpec] | None = None):
        self.specs: dict[str, ApiSpec] = {}
        if specs:
            for spec in specs:
                self.specs[spec.name] = spec

    def add(self, spec: ApiSpec) -> None:
        self.specs[spec.name] = spec

    def extend(self, specs: list[ApiSpec]) -> "ApiKnowledge":
        """Return a copy with `specs` layered on (custom-API import)."""
        merged = ApiKnowledge(list(self.specs.values()))
        for spec in specs:
            merged.add(spec)
        return merged

    def get(self, name: str) -> ApiSpec | None:
        return self.specs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.specs


def _std_specs() -> list[ApiSpec]:
    i32, i64 = ct.INT, ct.LONG
    f64 = ct.DOUBLE
    specs = [
        # -- files and paths --
        ApiSpec("open", args=[ArgFact(0, SemanticType.FILE)]),
        ApiSpec("fopen", args=[ArgFact(0, SemanticType.FILE)]),
        ApiSpec("access", args=[ArgFact(0, SemanticType.PATH)]),
        ApiSpec("file_exists", args=[ArgFact(0, SemanticType.PATH)]),
        ApiSpec("is_directory", args=[ArgFact(0, SemanticType.DIRECTORY)]),
        ApiSpec("stat_size", args=[ArgFact(0, SemanticType.FILE)]),
        ApiSpec("mkdir", args=[ArgFact(0, SemanticType.DIRECTORY)]),
        ApiSpec("unlink", args=[ArgFact(0, SemanticType.FILE)]),
        ApiSpec(
            "chmod",
            args=[ArgFact(0, SemanticType.PATH), ArgFact(1, SemanticType.PERMISSION)],
            access_op="mode",
        ),
        ApiSpec(
            "check_read_access",
            args=[ArgFact(0, SemanticType.PATH), ArgFact(1, SemanticType.USER)],
            access_op="read",
        ),
        ApiSpec(
            "check_write_access",
            args=[ArgFact(0, SemanticType.PATH), ArgFact(1, SemanticType.USER)],
            access_op="write",
        ),
        ApiSpec(
            "chown_user",
            args=[ArgFact(0, SemanticType.PATH), ArgFact(1, SemanticType.USER)],
        ),
        # -- sockets / network --
        ApiSpec("bind", args=[ArgFact(1, SemanticType.PORT)]),
        ApiSpec("htons", args=[ArgFact(0, SemanticType.PORT)]),
        ApiSpec(
            "connect_to",
            args=[ArgFact(0, SemanticType.HOSTNAME), ArgFact(1, SemanticType.PORT)],
        ),
        ApiSpec("inet_addr", args=[ArgFact(0, SemanticType.IP_ADDRESS)]),
        ApiSpec("inet_pton", args=[ArgFact(1, SemanticType.IP_ADDRESS)]),
        ApiSpec("gethostbyname", args=[ArgFact(0, SemanticType.HOSTNAME)]),
        ApiSpec("getpwnam", args=[ArgFact(0, SemanticType.USER)]),
        ApiSpec("getgrnam", args=[ArgFact(0, SemanticType.GROUP)]),
        # -- time --
        ApiSpec(
            "sleep",
            args=[ArgFact(0, SemanticType.TIME, Unit.SECONDS)],
        ),
        ApiSpec(
            "usleep",
            args=[ArgFact(0, SemanticType.TIME, Unit.MICROSECONDS)],
        ),
        ApiSpec(
            "sleep_ms",
            args=[ArgFact(0, SemanticType.TIME, Unit.MILLISECONDS)],
        ),
        ApiSpec("time", return_semantic=SemanticType.TIME, return_basic=i64),
        # -- memory --
        ApiSpec("malloc", args=[ArgFact(0, SemanticType.SIZE, Unit.BYTES)]),
        ApiSpec("calloc", args=[ArgFact(1, SemanticType.SIZE, Unit.BYTES)]),
        # -- string comparisons --
        ApiSpec("strcmp", comparison=True, case_sensitive=True),
        ApiSpec("strncmp", comparison=True, case_sensitive=True),
        ApiSpec("strcasecmp", comparison=True, case_sensitive=False),
        ApiSpec("strncasecmp", comparison=True, case_sensitive=False),
        # -- transformations: unsafe (paper §3.2 "Unsafe APIs") --
        ApiSpec("atoi", unsafe_transform=True, return_basic=i32),
        ApiSpec("atol", unsafe_transform=True, return_basic=i64),
        ApiSpec("atof", unsafe_transform=True, return_basic=f64),
        ApiSpec("sscanf", unsafe_transform=True, out_args_from=2),
        ApiSpec("sprintf", unsafe_transform=True),
        # -- transformations: safe --
        ApiSpec("strtol", safe_transform=True, return_basic=i64, out_args_from=1),
        ApiSpec("strtoll", safe_transform=True, return_basic=i64, out_args_from=1),
        ApiSpec("strtoul", safe_transform=True, return_basic=ct.ULONG),
        ApiSpec("strtod", safe_transform=True, return_basic=f64, out_args_from=1),
        # -- process exit --
        ApiSpec("exit", exits_process=True),
        ApiSpec("_exit", exits_process=True),
        ApiSpec("abort", exits_process=True),
        # -- logging --
        ApiSpec("printf", logs_message=True),
        ApiSpec("fprintf", logs_message=True),
        ApiSpec("syslog", logs_message=True),
        ApiSpec("perror", logs_message=True),
        ApiSpec("puts", logs_message=True),
        ApiSpec("fputs", logs_message=True),
    ]
    return specs


_DEFAULT: ApiKnowledge | None = None


def default_knowledge() -> ApiKnowledge:
    """The shared standard-library knowledge base."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ApiKnowledge(_std_specs())
    return _DEFAULT
