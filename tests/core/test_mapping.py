"""Mapping toolkits (§2.2.1): the facts the comparison and structure
toolkits lift from their sentinel-seeded pre-passes."""

from repro.analysis import TaintEngine
from repro.core.annotations import parse_annotations
from repro.core.mapping import extract_mappings
from repro.ir import build_ir
from repro.lang.program import Program


def mappings(source, annotations):
    module = build_ir(Program.from_sources({"t.c": source}))
    anns, _ = parse_annotations(annotations)
    return module, extract_mappings(module, anns)


PARSER = "{ @PARSER = parse_line\n  @PAR = $key @VAR = $value }"


class TestRegionUnsafeParse:
    # Block labels are numbered per function, so the helper's
    # `if.then.1` (holding its atoi) has the same label as the first
    # block of parse_line's "port" region.
    SOURCE = """
        int port;
        int level;
        int limit;
        int to_number(char *s) {
            if (s != NULL) {
                return atoi(s);
            }
            return 0;
        }
        int parse_line(char *key, char *value) {
            if (strcmp(key, "port") == 0) {
                port = 1;
                return 0;
            }
            if (strcmp(key, "level") == 0) {
                level = to_number(value);
                return 0;
            }
            if (strcmp(key, "limit") == 0) {
                limit = atoi(value);
                return 0;
            }
            return -1;
        }
    """

    def test_helper_block_with_a_region_label_is_not_in_the_region(self):
        module, result = mappings(self.SOURCE, PARSER)
        assert "if.then.1" in module.function("to_number").blocks
        assert "port" not in result.unsafe_parse

    def test_the_parsers_own_conversion_belongs_to_its_region(self):
        _, result = mappings(self.SOURCE, PARSER)
        assert result.unsafe_parse == {"limit": {"atoi"}}


class TestSharedApplierPrePass:
    SOURCE = """
        struct opt { char *name; int *var; };
        int a_flag;
        int b_flag;
        struct opt first[] = { { "alpha", &a_flag } };
        struct opt second[] = { { "beta", &b_flag } };
        int apply(char *key, char *value) {
            int i;
            for (i = 0; i < 1; i++) {
                if (strcmp(key, first[i].name) == 0) {
                    *first[i].var = strcmp(value, "Yes") == 0;
                }
                if (strcmp(key, second[i].name) == 0) {
                    *second[i].var = strcmp(value, "Yes") == 0;
                }
            }
            return 0;
        }
    """
    ANNOTATIONS = """
        { @STRUCT = first
          @PAR = [opt, 1]
          @VAR = [opt, 2] }
        { @STRUCT = second
          @PAR = [opt, 1]
          @VAR = [opt, 2] }
    """

    def test_tables_sharing_an_applier_share_its_pre_pass(self, monkeypatch):
        runs = []
        run = TaintEngine.run

        def counting_run(engine):
            runs.append(engine)
            return run(engine)

        monkeypatch.setattr(TaintEngine, "run", counting_run)
        _, result = mappings(self.SOURCE, self.ANNOTATIONS)
        assert len(runs) == 1
        # Both tables still take the applier's case-sensitive compare.
        assert result.case_sensitivity == {"alpha": True, "beta": True}
