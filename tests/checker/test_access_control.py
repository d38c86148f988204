"""Access-control constraints through the check pillar: generator
mistakes, compiled validators, blameless diagnostics, and the
synthetic-corpus loop — all against nginx, the system that carries
the traits.
"""

import pytest

from repro.checker import checker_for_system, validate_config
from repro.checker.corpus import corpus_pool, iter_corpus, mistake_mix
from repro.core.constraints import AccessControlConstraint
from repro.inject.generators import (
    AccessControlViolationPlugin,
    default_generators,
)
from repro.lang.source import Location
from repro.systems import get_system


@pytest.fixture(scope="module")
def system():
    return get_system("nginx")


@pytest.fixture(scope="module")
def checker(system):
    return checker_for_system(system)


def _mutate(system, old: str, new: str) -> str:
    text = system.default_config
    assert old in text
    return text.replace(old, new)


class TestCompiledValidators:
    def test_default_config_is_clean(self, checker, system):
        report = validate_config(checker, system.default_config)
        assert not report.flagged
        assert report.diagnostics == []

    def test_unreadable_root_is_blameless_error(self, checker, system):
        bad = _mutate(
            system, "root /data/nginx/static", "root /data/restricted_dir"
        )
        report = validate_config(checker, bad)
        codes = [d.code for d in report.errors()]
        assert codes == ["read-access-denied"]
        diagnostic = report.errors()[0]
        assert diagnostic.kind == "access_control"
        # Blameless: the message names the identity and where the
        # requirement comes from; the fix offers both repairs (change
        # the mode, or change the identity/path) instead of scolding.
        assert "www-data" in diagnostic.message
        assert "user" in diagnostic.message
        assert "read" in diagnostic.suggestion
        assert diagnostic.evidence.filename == "nginx.c"

    def test_unwritable_upload_store_is_error(self, checker, system):
        bad = _mutate(
            system,
            "upload_store /data/nginx/uploads",
            "upload_store /data/restricted_dir",
        )
        report = validate_config(checker, bad)
        assert [d.code for d in report.errors()] == ["write-access-denied"]

    @pytest.mark.parametrize("mode", ["899", "rwxr"])
    def test_invalid_permission_mode_is_error(self, checker, system, mode):
        bad = _mutate(
            system, "upload_store_mode 0755", f"upload_store_mode {mode}"
        )
        report = validate_config(checker, bad)
        # "rwxr" additionally trips the basic long-type check; the
        # permission-grammar error must be present either way.
        assert "invalid-permission" in [d.code for d in report.errors()]

    def test_world_writable_mode_warns_without_flagging(
        self, checker, system
    ):
        bad = _mutate(
            system, "upload_store_mode 0755", "upload_store_mode 0777"
        )
        report = validate_config(checker, bad)
        assert not report.flagged  # warning-severity, not provably wrong
        assert [d.code for d in report.warnings()] == ["world-writable"]

    def test_identity_change_alone_triggers_the_pair(self, checker, system):
        # The path stays the vendor default; pointing the identity at
        # an unprivileged user breaks the (upload_store owned by
        # www-data) pairing for writes.
        bad = _mutate(system, "user www-data", "user nobody")
        report = validate_config(checker, bad)
        assert "write-access-denied" in [d.code for d in report.errors()]


class TestGeneratorPlugin:
    def test_registered_in_default_roster(self):
        names = {
            plugin.rule_name for plugin in default_generators().plugins
        }
        assert "access-control" in names

    def test_mode_constraint_yields_two_grammar_mistakes(self, system):
        plugin = AccessControlViolationPlugin()
        constraint = AccessControlConstraint(
            "upload_store_mode", Location("nginx.c", 1, 1), operation="mode"
        )
        assert plugin.applies_to(constraint)
        values = [m.settings for m in plugin.generate(constraint, None)]
        assert values == [
            (("upload_store_mode", "899"),),
            (("upload_store_mode", "rwxr"),),
        ]

    def test_path_constraint_pairs_identity_mistake(self):
        plugin = AccessControlViolationPlugin()
        constraint = AccessControlConstraint(
            "root",
            Location("nginx.c", 1, 1),
            operation="read",
            user_param="user",
        )
        (mistake,) = plugin.generate(constraint, None)
        assert mistake.settings == (
            ("root", "/data/restricted_dir"),
            ("user", "nobody"),
        )
        assert mistake.rule == "access-control"


class TestCorpusLoop:
    def test_nginx_mix_includes_access_control(self):
        assert mistake_mix(get_system("nginx"))["access_control"] > 0

    def test_planted_acl_mistakes_are_caught(self, checker, system):
        from repro.inject.campaign import Campaign

        spex_report = Campaign(system).run_spex()
        pool = corpus_pool(spex_report, system)
        assert "access_control" in pool

        planted = caught = 0
        for config in iter_corpus(system, pool, size=80, seed=7):
            if config.mistake is None:
                continue
            if config.mistake.rule != "access-control":
                continue
            planted += 1
            report = validate_config(checker, config.text)
            if "access_control" in report.kinds_flagged():
                caught += 1
        assert planted >= 1
        assert caught == planted
