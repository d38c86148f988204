"""Tests for the synthetic user-config fleet generator."""

import dataclasses

import pytest

from repro.checker.corpus import (
    corpus_pool,
    generate_config,
    iter_corpus,
    kind_of,
    mistake_mix,
    pool_digest,
)
from repro.inject.campaign import Campaign
from repro.pipeline import PipelineCaches
from repro.study.cases import case_corpus
from repro.systems import get_system


@pytest.fixture(scope="module")
def caches():
    return PipelineCaches()


@pytest.fixture(scope="module")
def mysql_pool(caches):
    system = get_system("mysql")
    spex = Campaign(system, inference_cache=caches.inference).run_spex()
    return corpus_pool(spex, system)


class TestMistakeMix:
    def test_studied_system_uses_its_own_marginals(self):
        mix = mistake_mix(get_system("storage_a"))
        expected: dict[str, float] = {}
        for case in case_corpus()["storage_a"]:
            if case.in_spex_scope:
                expected[case.kind] = expected.get(case.kind, 0.0) + 1.0
        assert mix == expected

    def test_unstudied_system_pools_all_marginals(self):
        mix = mistake_mix(get_system("vsftpd"))
        expected: dict[str, float] = {}
        for cases in case_corpus().values():
            for case in cases:
                if case.in_spex_scope:
                    expected[case.kind] = expected.get(case.kind, 0.0) + 1.0
        assert mix == expected

    def test_override_hook(self):
        system = dataclasses.replace(
            get_system("vsftpd"), mistake_mix={"range": 3, "basic": 1}
        )
        assert mistake_mix(system) == {"range": 3.0, "basic": 1.0}
        # The override lives on that system value alone.
        assert "access_control" in mistake_mix(get_system("nginx"))
        assert mistake_mix(get_system("vsftpd")) != mistake_mix(system)

    def test_override_rejects_empty(self):
        with pytest.raises(ValueError, match="positive weight"):
            dataclasses.replace(
                get_system("vsftpd"), mistake_mix={"range": 0}
            )


class TestPool:
    def test_pool_has_every_kind_for_mysql(self, mysql_pool):
        assert {"basic", "semantic", "range", "value_rel"} <= set(mysql_pool)

    def test_extreme_values_excluded(self, mysql_pool):
        for misconfs in mysql_pool.values():
            assert all(m.rule != "extreme-value" for m in misconfs)

    def test_range_plants_actually_violate(self, mysql_pool):
        from repro.core.constraints import (
            EnumRangeConstraint,
            NumericRangeConstraint,
        )

        for misconf in mysql_pool.get("range", []):
            constraint = misconf.constraint
            injected = misconf.settings[0][1]
            if isinstance(constraint, NumericRangeConstraint):
                assert not constraint.contains(float(injected))
            elif isinstance(constraint, EnumRangeConstraint):
                assert not constraint.contains(injected)

    def test_kind_of_matches_pool_keys(self, mysql_pool):
        for kind, misconfs in mysql_pool.items():
            assert all(kind_of(m.constraint) == kind for m in misconfs)

    def test_digest_stable_and_content_sensitive(self, mysql_pool):
        assert pool_digest(mysql_pool) == pool_digest(mysql_pool)
        smaller = {
            kind: misconfs[:-1] for kind, misconfs in mysql_pool.items()
        }
        assert pool_digest(smaller) != pool_digest(mysql_pool)


class TestGeneration:
    def test_config_is_pure_function_of_inputs(self, mysql_pool):
        system = get_system("mysql")
        template = system.template_ar()
        mix = mistake_mix(system)
        a = generate_config("mysql", mysql_pool, template, mix, 7, 42)
        b = generate_config("mysql", mysql_pool, template, mix, 7, 42)
        assert a == b
        c = generate_config("mysql", mysql_pool, template, mix, 8, 42)
        assert c.text != a.text or c.mistake != a.mistake

    def test_slices_agree_with_full_stream(self, mysql_pool):
        system = get_system("mysql")
        full = list(iter_corpus(system, mysql_pool, 20, seed=3))
        tail = list(iter_corpus(system, mysql_pool, 8, seed=3, start=12))
        assert full[12:] == tail

    def test_mistake_rate_zero_is_all_clean(self, mysql_pool):
        system = get_system("mysql")
        configs = list(
            iter_corpus(system, mysql_pool, 10, seed=0, mistake_rate=0.0)
        )
        assert all(c.mistake is None for c in configs)
        marker_free = system.template_ar().serialize()
        for config in configs:
            assert config.text.startswith(marker_free)
            assert config.config_id in config.text

    def test_mistake_rate_one_always_plants(self, mysql_pool):
        system = get_system("mysql")
        configs = list(
            iter_corpus(system, mysql_pool, 10, seed=0, mistake_rate=1.0)
        )
        assert all(c.is_mistaken for c in configs)
        for config in configs:
            assert config.mistake_kind == kind_of(config.mistake.constraint)
            # The planted settings really are in the rendered text.
            ar = system.template_ar()
            for name, value in config.mistake.settings:
                ar.set(name, value)
            assert config.text.startswith(ar.serialize())

    def test_mix_restricts_kinds(self, mysql_pool):
        system = get_system("mysql")
        configs = list(
            iter_corpus(
                system,
                mysql_pool,
                20,
                seed=0,
                mistake_rate=1.0,
                mix={"range": 1.0},
            )
        )
        assert {c.mistake_kind for c in configs} == {"range"}
