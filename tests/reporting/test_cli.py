"""Tests for the CLI entry point.

Exit-code contract: 0 success/clean, 1 `check` found errors, 2 usage
mistakes (unknown command, unknown system, unreadable file, an
out-of-range flag value).
"""

import json
import re

import pytest

from repro.reporting.cli import main


class TestCli:
    def test_single_section(self, capsys, evaluation):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1:" in out
        assert "OpenLDAP" in out

    def test_multiple_sections(self, capsys, evaluation):
        assert main(["table2", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 2:" in out and "Table 3:" in out

    def test_unknown_section_errors(self, capsys, evaluation):
        assert main(["table99"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        # The help listing must advertise the pipeline subcommand.
        assert "pipeline" in err

    def test_help_lists_pipeline(self, capsys):
        assert main(["help"]) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out and "table5a" in out

    def test_pipeline_command(self, capsys):
        assert main(["pipeline", "--systems", "apache", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline: misconfiguration campaigns across systems" in out
        assert "apache" in out
        assert "campaign cache" not in out
        # The second pass re-executes the campaign: inference comes
        # from the cache and every launch finds its boot record.
        footer = re.search(
            r"inference cache: (\d+) hits / (\d+) misses; "
            r"launch store: (\d+) hits / (\d+) misses",
            out,
        )
        assert footer is not None
        inference_hits, _, launch_hits, launch_misses = map(
            int, footer.groups()
        )
        assert inference_hits >= 1
        assert launch_hits > launch_misses > 0

    def test_pipeline_unknown_system_errors(self, capsys):
        assert main(["pipeline", "--systems", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown system" in err

    def test_pipeline_json_output(self, capsys):
        assert main(["pipeline", "--systems", "vsftpd", "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["executor"] == "serial"
        assert decoded["systems"][0]["name"] == "vsftpd"
        assert decoded["systems"][0]["misconfigurations_tested"] > 0
        assert set(decoded["cache_stats"]) >= {"inference", "launches"}

    def test_unknown_command_exit_code_and_listing(self, capsys):
        assert main(["bogus-command"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        # The usage listing names every subcommand family.
        for command in ("pipeline", "check", "fleet", "table5a"):
            assert command in err

    def test_help_exit_code_zero(self, capsys):
        assert main(["help"]) == 0
        out = capsys.readouterr().out
        assert "check" in out and "fleet" in out


class TestFlagBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--systems", "vsftpd,apache", "--executor",
             "thread", "--workers", "-1"],
            ["fleet", "--workers", "0"],
            ["serve", "--warmup-only", "--workers", "0"],
            ["fleet", "--size", "-5"],
            ["fleet", "--mistake-rate", "1.5"],
            ["fleet", "--mistake-rate", "-0.1"],
            ["pipeline", "--systems", "vsftpd", "--repeat", "-2"],
            ["pipeline", "--systems", "vsftpd", "--repeat", "0"],
            ["fleet", "--chunk", "0"],
            ["fleet", "--sample", "-3"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_out_of_range_value_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert argv[-2] in err

    def test_boundary_values_are_accepted(self, capsys):
        argv = [
            "fleet", "--systems", "vsftpd", "--size", "0",
            "--mistake-rate", "1", "--workers", "1", "--chunk", "1",
            "--sample", "0", "--json",
        ]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["total_configs"] == 0


class TestCheckCommand:
    def test_clean_config_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "ok.cnf"
        path.write_text("ft_min_word_len = 5\n")
        assert main(["check", "mysql", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no problems found" in out

    def test_bad_config_exits_one_with_fix(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("ft_min_word_len = 99\n")
        assert main(["check", "mysql", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ft_min_word_len" in out and "fix:" in out

    def test_unknown_system_exits_two(self, capsys, tmp_path):
        path = tmp_path / "x.cnf"
        path.write_text("")
        assert main(["check", "bogus", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown system" in err and "mysql" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["check", "mysql", str(tmp_path / "absent.cnf")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("port = 70000\n")
        assert main(["check", "mysql", str(path), "--json"]) == 1
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["flagged"] is True
        assert decoded["diagnostics"][0]["param"] == "port"


class TestFleetCommand:
    def test_fleet_renders_table(self, capsys):
        assert (
            main(
                [
                    "fleet", "--systems", "vsftpd", "--size", "20",
                    "--sample", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fleet: constraint-checked synthetic user configs" in out
        assert "vsftpd" in out
        assert "interpreter agreement" in out

    def test_fleet_unknown_system_exits_two(self, capsys):
        assert main(["fleet", "--systems", "nope"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_fleet_json_output(self, capsys):
        assert (
            main(
                [
                    "fleet", "--systems", "vsftpd,mysql", "--size", "10",
                    "--json",
                ]
            )
            == 0
        )
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["total_configs"] == 20
        assert [s["name"] for s in decoded["systems"]] == [
            "vsftpd",
            "mysql",
        ]
        assert decoded["scores"]["false_positives"] == 0
