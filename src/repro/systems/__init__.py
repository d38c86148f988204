"""Subject systems: the paper's seven evaluated programs
plus nginx, in MiniC.

Each package mirrors its real counterpart's configuration
architecture - mapping convention (Table 1), config-file dialect,
constraint mix and the concrete vulnerabilities the paper reports -
at miniature scale.  `repro.systems.corpus` additionally carries the
18-project mapping-convention survey snippets for Table 1.
"""

from repro.systems.base import (
    FunctionalTest,
    SubjectSystem,
    decode_bool,
    decode_int,
    decode_size,
    decode_string,
    decode_time_seconds,
)
from repro.systems.registry import (
    all_systems,
    get_system,
    is_registered,
    iter_systems,
    load_all,
    system_names,
)

__all__ = [
    "FunctionalTest",
    "SubjectSystem",
    "all_systems",
    "is_registered",
    "iter_systems",
    "load_all",
    "decode_bool",
    "decode_int",
    "decode_size",
    "decode_string",
    "decode_time_seconds",
    "get_system",
    "system_names",
]
