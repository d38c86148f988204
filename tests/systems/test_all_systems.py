"""Cross-system integration: every miniature runs, gets analysed,
injected and linted, with the paper's headline shapes holding."""

import dataclasses

import pytest

from repro.inject.reactions import ReactionCategory as RC
from repro.systems import SubjectSystem, all_systems, system_names


class TestRegistry:
    def test_seven_systems_registered(self):
        # The paper's seven plus nginx (#8).
        assert system_names() == [
            "apache",
            "mysql",
            "nginx",
            "openldap",
            "postgresql",
            "squid",
            "storage_a",
            "vsftpd",
        ]

    def test_all_parse_and_have_main(self):
        for system in all_systems():
            assert system.program().has_function("main"), system.name

    def test_all_params_have_manual_or_are_undocumented_by_design(self):
        for system in all_systems():
            assert system.manual, system.name

    def test_decoders_and_effective_locations_reference_params(self):
        for system in all_systems():
            template = system.template_ar()
            names = {e.name for e in template.entries}
            for param in system.effective_locations:
                assert param in names, (system.name, param)

    def test_hand_built_tables_rejected(self):
        # The tables derive from the ParamSpec rows; a system cannot
        # be handed a table beside them.
        for system in all_systems():
            declared = _declared_fields(system)
            for table in ("decoders", "effective_locations", "manual",
                          "ground_truth"):
                with pytest.raises(TypeError):
                    SubjectSystem(**declared, **{table: {}})

    def test_malformed_param_rows_rejected(self):
        # Row-level mistakes surface at construction, naming the row.
        system = all_systems()[0]
        declared = _declared_fields(system)
        first = system.params[0]
        with pytest.raises(ValueError, match="duplicate ParamSpec"):
            SubjectSystem(**{**declared,
                             "params": [*system.params, first]})
        bad = dataclasses.replace(first, decode="no-such-decoder")
        with pytest.raises(ValueError, match="unknown decoder"):
            SubjectSystem(**{**declared,
                             "params": [bad, *system.params[1:]]})


def _declared_fields(system) -> dict:
    return {
        f.name: getattr(system, f.name)
        for f in dataclasses.fields(system)
        if f.init
    }


class TestBaselines:
    @pytest.mark.parametrize("name", [
        "apache", "mysql", "nginx", "openldap", "postgresql", "squid",
        "storage_a", "vsftpd",
    ])
    def test_baseline_passes(self, name, evaluation):
        from repro.inject.harness import InjectionHarness

        system = evaluation.result(name).system
        assert InjectionHarness(system).baseline_ok()


class TestCampaignShapes:
    def test_silent_violation_dominates_overall(self, evaluation):
        totals = {}
        for res in evaluation.results():
            for cat, n in res.campaign.counts_by_category().items():
                totals[cat] = totals.get(cat, 0) + n
        assert totals[RC.SILENT_VIOLATION] == max(totals.values())

    def test_storage_a_has_no_crashes_or_early_terminations(self, evaluation):
        counts = evaluation.result("storage_a").campaign.counts_by_category()
        assert counts.get(RC.CRASH_HANG, 0) == 0
        assert counts.get(RC.EARLY_TERMINATION, 0) == 0

    def test_guc_style_systems_have_few_range_vulnerabilities(self, evaluation):
        # §5.2: the min/max tables of PostgreSQL yield good reactions
        # for out-of-range values (it names the parameter and exits).
        pg = evaluation.result("postgresql").campaign
        range_vulns = [v for v in pg.vulnerabilities if v.rule == "data-range"]
        assert len(range_vulns) <= 2

    def test_vsftpd_silent_ignorance_present(self, evaluation):
        counts = evaluation.result("vsftpd").campaign.counts_by_category()
        assert counts.get(RC.SILENT_IGNORANCE, 0) >= 4

    def test_every_vulnerability_has_code_location(self, evaluation):
        for res in evaluation.results():
            for vuln in res.campaign.vulnerabilities:
                assert vuln.code_location is not None


class TestStorageATraits:
    def test_initiator_name_case_functional_failure(self, evaluation):
        # Figure 1: an uppercase initiator name silently breaks lookup.
        campaign = evaluation.result("storage_a").campaign
        case_verdicts = [
            v
            for v in campaign.verdicts
            if v.misconfiguration.rule == "case-alteration"
            and v.misconfiguration.primary_param == "iscsi.initiator.name"
        ]
        assert case_verdicts
        assert (
            case_verdicts[0].reaction.category is RC.FUNCTIONAL_FAILURE
        )

    def test_log_filesize_overflow_silent(self, evaluation):
        # Figure 5(a): the overflowed number is silently stored/clamped.
        campaign = evaluation.result("storage_a").campaign
        overflow = [
            v
            for v in campaign.verdicts
            if v.misconfiguration.primary_param == "log.filesize"
            and v.misconfiguration.rule == "basic-type"
        ]
        assert any(
            v.reaction.category is RC.SILENT_VIOLATION for v in overflow
        )

    def test_custom_knowledge_gives_proprietary_units(self, evaluation):
        from repro.knowledge import SemanticType, Unit

        spex = evaluation.result("storage_a").spex
        semantics = {
            (c.param, c.semantic, c.unit)
            for c in spex.constraints.semantic_types()
        }
        # wafl_reserve / ontap_schedule_scrub imported via
        # custom_knowledge produced these:
        assert ("scrub.interval.hour", SemanticType.TIME, Unit.HOURS) in semantics
        assert ("wafl.cache.mb", SemanticType.SIZE, Unit.MEGABYTES) in semantics


class TestMysqlTraits:
    def test_history_size_zero_crashes_sigfpe(self, evaluation):
        campaign = evaluation.result("mysql").campaign
        crashes = [
            v
            for v in campaign.vulnerabilities
            if v.category is RC.CRASH_HANG
            and v.param == "performance_schema_events_waits_history_size"
        ]
        assert crashes

    def test_stopword_directory_crashes(self, evaluation):
        campaign = evaluation.result("mysql").campaign
        crashes = [
            v
            for v in campaign.vulnerabilities
            if v.category is RC.CRASH_HANG and v.param == "ft_stopword_file"
        ]
        assert crashes

    def test_ft_relation_violation_breaks_search_silently(self, evaluation):
        campaign = evaluation.result("mysql").campaign
        failures = [
            v
            for v in campaign.vulnerabilities
            if v.rule == "value-relationship"
            and v.category is RC.FUNCTIONAL_FAILURE
        ]
        assert failures


class TestSquidTraits:
    def test_icp_port_occupied_misleading_fatal(self, evaluation):
        campaign = evaluation.result("squid").campaign
        verdicts = [
            v
            for v in campaign.verdicts
            if v.misconfiguration.primary_param == "icp_port"
            and dict(v.misconfiguration.settings).get("icp_port") == "3130"
        ]
        assert verdicts
        verdict = verdicts[0]
        assert verdict.reaction.category is RC.EARLY_TERMINATION
        assert "Cannot open ICP Port" in verdict.log_excerpt

    def test_boolean_on_case_alteration_silently_off(self, evaluation):
        # buffered_logs uses strcmp: "ON" is silently off (Figure 6c).
        campaign = evaluation.result("squid").campaign
        verdicts = [
            v
            for v in campaign.verdicts
            if v.misconfiguration.primary_param == "buffered_logs"
            and v.misconfiguration.rule == "case-alteration"
        ]
        assert verdicts
        assert verdicts[0].reaction.category is RC.SILENT_VIOLATION
