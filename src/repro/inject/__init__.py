"""SPEX-INJ: misconfiguration injection testing (§3.1).

Pipeline: constraints -> generated misconfigurations (Table 2 rules,
one plug-in per constraint kind) -> injected config files (via the
abstract representation, after ConfErr) -> system runs under the
emulated OS -> reaction classification (Table 3) -> error reports.
"""

from repro.inject.ar import ConfigAR, ConfigEntry, DirectiveDialect, KeyValueDialect
from repro.inject.generators import (
    GeneratorRegistry,
    Misconfiguration,
    default_generators,
)
from repro.inject.reactions import Reaction, ReactionCategory
from repro.inject.harness import InjectionHarness, InjectionVerdict
from repro.inject.campaign import Campaign, CampaignReport, Vulnerability

__all__ = [
    "Campaign",
    "CampaignReport",
    "ConfigAR",
    "ConfigEntry",
    "DirectiveDialect",
    "GeneratorRegistry",
    "InjectionHarness",
    "InjectionVerdict",
    "KeyValueDialect",
    "Misconfiguration",
    "Reaction",
    "ReactionCategory",
    "Vulnerability",
    "default_generators",
]
