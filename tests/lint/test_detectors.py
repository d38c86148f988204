"""Unit+integration tests for the §3.2 design-lint detectors."""

from repro.knowledge import Unit


class TestCaseSensitivity:
    def test_mysql_single_sensitive_outlier(self, evaluation):
        # Figure 6(a): innodb_file_format_check is the one sensitive
        # string option in an otherwise insensitive system.
        finding = evaluation.result("mysql").lint.case_sensitivity
        assert finding.sensitive == ["innodb_file_format_check"]
        assert finding.inconsistent
        assert finding.minority == ["innodb_file_format_check"]

    def test_vsftpd_consistent_insensitive(self, evaluation):
        finding = evaluation.result("vsftpd").lint.case_sensitivity
        assert not finding.sensitive
        assert len(finding.insensitive) >= 10
        assert not finding.inconsistent


class TestUnits:
    def test_apache_maxmemfree_kb_outlier(self, evaluation):
        # Figure 6(b): MaxMemFree in KB among byte-sized parameters.
        finding = evaluation.result("apache").lint.units
        size = finding.by_dimension["size"]
        assert size[Unit.KILOBYTES] == ["MaxMemFree"]
        assert len(size) > 1  # the size dimension mixes units

    def test_storage_unit_naming_mitigation(self, evaluation):
        # §5.2: Storage-A exposes unit info in names (cleanup.msec...).
        finding = evaluation.result("storage_a").lint.units
        assert "cleanup.msec" in finding.unit_named
        assert "takeover.sec" in finding.unit_named
        assert "scrub.interval.hour" in finding.unit_named


class TestOverruling:
    def test_squid_booleans_overruled(self, evaluation):
        finding = evaluation.result("squid").lint.overruling
        assert "memory_pools" in finding.params
        assert "buffered_logs" in finding.params
        assert len(finding.params) >= 6

    def test_postgresql_never_overrules(self, evaluation):
        finding = evaluation.result("postgresql").lint.overruling
        assert finding.params == []


class TestUnsafeApis:
    def test_squid_sscanf(self, evaluation):
        finding = evaluation.result("squid").lint.unsafe
        assert any("sscanf" in apis for apis in finding.params.values())
        assert "http_port" in finding.params

    def test_vsftpd_atoi_int_table_only(self, evaluation):
        finding = evaluation.result("vsftpd").lint.unsafe
        assert "listen_port" in finding.params  # int table
        assert "ssl_enable" not in finding.params  # bool table
        assert "ftp_username" not in finding.params  # string table

    def test_strtol_systems_clean(self, evaluation):
        for name in ("mysql", "postgresql", "openldap"):
            finding = evaluation.result(name).lint.unsafe
            assert finding.affected == [], name


class TestUndocumented:
    def test_openldap_undocumented_clamps(self, evaluation):
        # index_intlen's [4,255] and sockbuf's cap are not in the manual.
        finding = evaluation.result("openldap").lint.undocumented
        assert "index_intlen" in finding.ranges
        assert "sockbuf_max_incoming" in finding.ranges

    def test_vsftpd_undocumented_dependencies(self, evaluation):
        finding = evaluation.result("vsftpd").lint.undocumented
        assert len(finding.control_deps) >= 8

    def test_documented_ranges_not_flagged(self, evaluation):
        # threads is documented as "between 2 and 64" in the manual.
        finding = evaluation.result("openldap").lint.undocumented
        assert "threads" not in finding.ranges
