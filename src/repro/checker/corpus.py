"""Deterministic synthetic user-config fleets.

The ROADMAP's deployment story is millions of user config files, most
fine, some wrong in the ways real users get things wrong.  This module
manufactures that fleet: per system, a seeded stream of rendered
configs where each config is either the vendor template or the
template with one planted mistake, the mistake *kind* sampled from the
Tables 9-10 marginals of `repro.study.cases` (the paper's study of
what real users actually misconfigure) and the concrete erroneous
value drawn from the same Table 2 generation rules the injection
campaigns use.

Generation is content-deterministic: config `i` of a (system, seed)
pair is a pure function of those inputs, so fleet shards can be
regenerated independently in worker processes and any flagged config
can be reproduced exactly for interpreter ground-truthing.

Usage::

    from repro.checker.corpus import corpus_pool, generate_config

    pool = corpus_pool(spex_report, system)
    config = generate_config(system.name, pool, template_text, mix,
                             seed=7, index=42)
    config.text          # rendered config file
    config.mistake       # planted Misconfiguration, or None
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.core.constraints import (
    AccessControlConstraint,
    BasicTypeConstraint,
    ControlDepConstraint,
    EnumRangeConstraint,
    NumericRangeConstraint,
    SemanticTypeConstraint,
    ValueRelConstraint,
)
from repro.core.engine import SpexReport
from repro.checker.compile import _parse_number
from repro.inject.ar import ConfigAR
from repro.inject.generators import Misconfiguration, default_generators
from repro.store import content_key
from repro.study.cases import case_corpus
from repro.systems.base import SubjectSystem

DEFAULT_MISTAKE_RATE = 0.5

def mistake_mix(system: SubjectSystem) -> dict[str, float]:
    """The mistake-kind marginal for one system.

    A system that declares its own `mistake_mix` (relative weights
    over the constraint-kind slugs basic / semantic / range /
    ctrl_dep / value_rel / access_control, normalised at sampling
    time) gets it - the extension point for systems whose user
    population errs differently from the studied four.  Systems with
    a studied case set (Tables 9-10) use their own in-scope kind
    counts; the rest use the pooled marginal across every studied
    system - the paper's point that user mistakes concentrate in the
    same constraint categories everywhere."""
    if system.mistake_mix is not None:
        return dict(system.mistake_mix)
    corpus = case_corpus()
    cases = corpus.get(system.name)
    if cases is None:
        cases = [case for case_set in corpus.values() for case in case_set]
    counts: dict[str, float] = {}
    for case in cases:
        if case.in_spex_scope:
            counts[case.kind] = counts.get(case.kind, 0.0) + 1.0
    return counts


def kind_of(constraint) -> str | None:
    """Constraint class -> the study's kind slug."""
    if isinstance(constraint, BasicTypeConstraint):
        return "basic"
    if isinstance(constraint, SemanticTypeConstraint):
        return "semantic"
    if isinstance(constraint, (NumericRangeConstraint, EnumRangeConstraint)):
        return "range"
    if isinstance(constraint, ControlDepConstraint):
        return "ctrl_dep"
    if isinstance(constraint, ValueRelConstraint):
        return "value_rel"
    if isinstance(constraint, AccessControlConstraint):
        return "access_control"
    return None


@dataclass(frozen=True)
class SyntheticConfig:
    """One fleet member: a rendered config plus its ground truth."""

    config_id: str
    system: str
    index: int
    text: str
    mistake: Misconfiguration | None = None
    mistake_kind: str | None = None

    @property
    def is_mistaken(self) -> bool:
        return self.mistake is not None


def corpus_pool(
    spex_report: SpexReport, system: SubjectSystem
) -> dict[str, list[Misconfiguration]]:
    """The plantable mistakes for one system, grouped by kind.

    Drawn from the Table 2 generation rules, then filtered down to
    *actual constraint violations*:

    * the ``extreme-value`` rule is excluded - its values conform to
      every inferred constraint (they probe hard-coded limits, the
      injection harness's job, not a constraint checker's);
    * range-rule injections the constraint itself accepts are excluded
      (e.g. case alternation of an enum value the system compares
      case-insensitively - not a user mistake at all).
    """
    template = system.template_ar()
    pool: dict[str, list[Misconfiguration]] = {}
    for misconf in default_generators().generate(
        spex_report.constraints, template
    ):
        if misconf.rule == "extreme-value":
            continue
        constraint = misconf.constraint
        if isinstance(
            constraint, (NumericRangeConstraint, EnumRangeConstraint)
        ):
            injected = misconf.settings[0][1]
            # Same parser the compiled range validators use, so
            # "plantable mistake" and "checker can flag it" agree.
            number = _parse_number(injected)
            probe = number if (
                isinstance(constraint, NumericRangeConstraint)
                and number is not None
            ) else injected
            if constraint.contains(probe):
                continue
        kind = kind_of(constraint)
        if kind is None:
            continue
        pool.setdefault(kind, []).append(misconf)
    return pool


def pool_digest(pool: dict[str, list[Misconfiguration]]) -> str:
    """Content hash of the plantable-mistake roster.  Worker processes
    that regenerate the pool verify it against the parent's digest, so
    a divergent re-inference (different sources or options) fails
    loudly instead of planting different mistakes."""
    return content_key(
        *(
            repr((kind, [(m.settings, m.rule) for m in pool[kind]]))
            for kind in sorted(pool)
        )
    )


def generate_config(
    system_name: str,
    pool: dict[str, list[Misconfiguration]],
    template: ConfigAR,
    mix: dict[str, float],
    seed: int,
    index: int,
    mistake_rate: float = DEFAULT_MISTAKE_RATE,
) -> SyntheticConfig:
    """Config `index` of the (system, seed) fleet - a pure function of
    its arguments, so shards regenerate independently."""
    config_id = f"{system_name}:{seed}:{index:06d}"
    rng = random.Random(f"fleet|{config_id}")
    marker = f"# synthetic fleet config {config_id}\n"
    kinds = sorted(k for k in mix if pool.get(k))
    if not kinds or rng.random() >= mistake_rate:
        return SyntheticConfig(
            config_id=config_id,
            system=system_name,
            index=index,
            text=template.serialize() + marker,
        )
    weights = [mix[k] for k in kinds]
    kind = rng.choices(kinds, weights=weights, k=1)[0]
    mistake = rng.choice(pool[kind])
    ar = template.clone()
    for name, value in mistake.settings:
        ar.set(name, value)
    return SyntheticConfig(
        config_id=config_id,
        system=system_name,
        index=index,
        text=ar.serialize() + marker,
        mistake=mistake,
        mistake_kind=kind,
    )


def iter_corpus(
    system: SubjectSystem,
    pool: dict[str, list[Misconfiguration]],
    size: int,
    seed: int = 0,
    mistake_rate: float = DEFAULT_MISTAKE_RATE,
    mix: dict[str, float] | None = None,
    start: int = 0,
    template: ConfigAR | None = None,
) -> Iterator[SyntheticConfig]:
    """Stream a (slice of a) fleet without materialising it.

    Callers streaming many slices (the fleet's chunk loop) pass the
    parsed `template` once instead of re-parsing it per slice."""
    if template is None:
        template = system.template_ar()
    mix = mix if mix is not None else mistake_mix(system)
    for index in range(start, start + size):
        yield generate_config(
            system.name, pool, template, mix, seed, index, mistake_rate
        )
