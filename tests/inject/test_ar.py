"""Unit tests for the config-file abstract representation."""

from repro.inject.ar import ConfigAR, ConfigEntry, DirectiveDialect, KeyValueDialect


class TestKeyValueDialect:
    def test_parse_and_get(self):
        ar = ConfigAR.parse("a=1\nb = two\n# comment\n\nc=3\n", KeyValueDialect("="))
        assert ar.get("a") == "1"
        assert ar.get("b") == "two"
        assert ar.get("c") == "3"
        assert ar.get("missing") is None

    def test_set_replaces_in_place(self):
        ar = ConfigAR.parse("a=1\nb=2\n", KeyValueDialect("="))
        ar.set("a", "9")
        assert ar.get("a") == "9"
        assert [e.name for e in ar.entries] == ["a", "b"]

    def test_set_appends_new(self):
        ar = ConfigAR.parse("a=1\n", KeyValueDialect("="))
        ar.set("new", "x")
        assert ar.get("new") == "x"

    def test_serialize_preserves_comments_and_order(self):
        text = "# header\na=1\nb=2\n"
        ar = ConfigAR.parse(text, KeyValueDialect("="))
        out = ar.serialize()
        assert out.splitlines()[0] == "# header"
        assert "a=1" in out
        assert "b=2" in out

    def test_clone_isolated(self):
        ar = ConfigAR.parse("a=1\n", KeyValueDialect("="))
        clone = ar.clone()
        clone.set("a", "2")
        assert ar.get("a") == "1"
        assert clone.get("a") == "2"

    def test_line_numbers(self):
        ar = ConfigAR.parse("# c\na=1\nb=2\n", KeyValueDialect("="))
        assert ar.line_of("a") == 2
        assert ar.line_of("b") == 3


class TestDirectiveDialect:
    def test_parse_directive_lines(self):
        ar = ConfigAR.parse(
            "Listen 80\nDocumentRoot /var/www html\n", DirectiveDialect()
        )
        assert ar.get("Listen") == "80"
        assert ar.get("DocumentRoot") == "/var/www html"

    def test_directive_without_value(self):
        ar = ConfigAR.parse("EnableFoo\n", DirectiveDialect())
        assert ar.get("EnableFoo") == ""

    def test_roundtrip(self):
        text = "Listen 80\nServerName localhost\n"
        ar = ConfigAR.parse(text, DirectiveDialect())
        assert ar.serialize() == text
