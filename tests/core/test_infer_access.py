"""Access-control constraint inference (`repro.core.infer_access`).

The sixth constraint class: a tainted path reaching an
access-asserting API becomes "this path must be readable/writable by
the acting identity", a tainted value reaching ``chmod``'s mode
argument becomes "this parameter is installed verbatim as a
permission mode", and when the identity is itself configuration the
constraint records the pairing.
"""

from repro.core import SpexEngine
from repro.core.accuracy import score_accuracy, truth_access
from repro.core.constraints import AccessControlConstraint
from repro.lang.program import Program
from repro.runtime.os_model import EmulatedOS, node_allows

ANNOTATIONS = """
{ @STRUCT = options
  @PAR = [config_str, 1]
  @VAR = [config_str, 2] }
"""

PRELUDE = """
struct config_str { char *name; char **var; };
"""

PAIRED_SOURCE = PRELUDE + """
char *data_dir;
char *spool_dir;
char *run_user;
char *store_mode;
struct config_str options[] = {
    { "data_dir", &data_dir },
    { "spool_dir", &spool_dir },
    { "user", &run_user },
    { "store_mode", &store_mode },
};
int startup() {
    if (check_read_access(data_dir, run_user) != 0) {
        exit(1);
    }
    if (check_write_access(spool_dir, run_user) != 0) {
        exit(1);
    }
    long mode = strtol(store_mode, NULL, 8);
    chmod(spool_dir, mode);
    return 0;
}
"""


def run_spex(source, annotations=ANNOTATIONS):
    program = Program.from_sources({"system.c": source})
    return SpexEngine(program, annotations).run()


def access_controls(report):
    return [
        c
        for c in report.constraints
        if isinstance(c, AccessControlConstraint)
    ]


def by_identity(report):
    return {
        (c.param, c.operation, c.user_param)
        for c in access_controls(report)
    }


class TestInference:
    def test_read_write_and_mode_with_paired_identity(self):
        report = run_spex(PAIRED_SOURCE)
        assert by_identity(report) == {
            ("data_dir", "read", "user"),
            ("spool_dir", "write", "user"),
            ("store_mode", "mode", ""),
        }

    def test_literal_identity_leaves_user_param_empty(self):
        report = run_spex(
            PRELUDE
            + """
            char *data_dir;
            struct config_str options[] = {
                { "data_dir", &data_dir },
            };
            int startup() {
                if (check_read_access(data_dir, "nobody") != 0) {
                    exit(1);
                }
                return 0;
            }
            """
        )
        assert by_identity(report) == {("data_dir", "read", "")}

    def test_mode_taint_survives_strtol(self):
        # The octal text flows through strtol into chmod's mode slot;
        # the library-call taint union is what carries it.
        report = run_spex(PAIRED_SOURCE)
        modes = [
            c
            for c in access_controls(report)
            if c.operation == "mode"
        ]
        assert [c.param for c in modes] == ["store_mode"]

    def test_repeated_sites_dedup_to_one_constraint(self):
        report = run_spex(
            PRELUDE
            + """
            char *data_dir;
            char *run_user;
            struct config_str options[] = {
                { "data_dir", &data_dir },
                { "user", &run_user },
            };
            int early() {
                if (check_read_access(data_dir, run_user) != 0) {
                    return 1;
                }
                return 0;
            }
            int late() {
                if (check_read_access(data_dir, run_user) != 0) {
                    exit(1);
                }
                return 0;
            }
            """
        )
        assert by_identity(report) == {("data_dir", "read", "user")}

    def test_counts_surface_in_report(self):
        report = run_spex(PAIRED_SOURCE)
        assert report.constraint_counts()["access_control"] == 3


class TestAccuracyScoring:
    def test_truth_access_matches_inferred(self):
        report = run_spex(PAIRED_SOURCE)
        truth = [
            truth_access("data_dir", "read"),
            truth_access("spool_dir", "write"),
            truth_access("store_mode", "mode"),
        ]
        accuracy = score_accuracy("toy", report.constraints, truth)
        true, total = accuracy.per_kind["access_control"]
        assert (true, total) == (3, 3)


class TestEmulatedOsAclModel:
    def test_node_allows_owner_and_other_bits(self):
        # Owner judged by the user bits, everyone else by other bits.
        assert node_allows(0o700, "alice", True, "alice", False)
        assert not node_allows(0o700, "alice", True, "bob", False)
        assert node_allows(0o704, "alice", True, "bob", False)
        assert not node_allows(0o704, "alice", True, "bob", True)
        assert node_allows(0o702, "alice", True, "bob", True)

    def test_legacy_writable_flag_vetoes_writes(self):
        # The pre-ACL fixture flag stays an independent veto: mode
        # bits alone cannot re-open a read-only node for writing.
        assert not node_allows(0o777, "alice", False, "alice", True)
        assert node_allows(0o777, "alice", False, "alice", False)

    def test_root_bypasses_modes(self):
        assert node_allows(0o000, "alice", True, "root", False)
        assert node_allows(0o000, "alice", True, "root", True)

    def test_os_can_read_write_and_chmod(self):
        os_model = EmulatedOS()
        os_model.add_dir("/data/private", mode=0o700, owner="root")
        assert not os_model.can_read("/data/private", "www-data")
        os_model.chmod("/data/private", 0o755)
        assert os_model.can_read("/data/private", "www-data")
        assert not os_model.can_write("/data/private", "www-data")

    def test_standard_restricted_fixture(self):
        # Every system's world carries the guaranteed-denied target
        # the ACL mistake generator points paths at.
        from repro.systems import get_system

        os_model = get_system("vsftpd").make_os()
        assert not os_model.can_read("/data/restricted_dir", "nobody")
        assert not os_model.can_write("/data/restricted_dir", "nobody")
