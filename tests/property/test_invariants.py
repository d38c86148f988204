"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.events import Labels
from repro.inject.ar import ConfigAR, DirectiveDialect, KeyValueDialect
from repro.lang import types as ct
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind
from repro.runtime.builtins import c_format
from repro.runtime.values import coerce

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True)
config_values = st.from_regex(r"[A-Za-z0-9_./:-]{1,16}", fullmatch=True)


class TestLexerProperties:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_decimal_integers_roundtrip(self, value):
        toks = tokenize(str(value))
        assert toks[0].kind is TokenKind.INT_LIT
        assert toks[0].value == value

    @given(identifiers)
    def test_identifiers_lex_whole(self, name):
        toks = tokenize(name)
        assert len(toks) == 2  # ident + EOF
        assert toks[0].text == name

    @given(st.text(alphabet=st.characters(blacklist_characters='"\\\n',
                                          min_codepoint=32, max_codepoint=126),
                   max_size=30))
    def test_string_literals_roundtrip(self, text):
        toks = tokenize(f'"{text}"')
        assert toks[0].kind is TokenKind.STRING_LIT
        assert toks[0].value == text


class TestIntegerSemantics:
    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_int32_wrap_is_congruent_mod_2_32(self, value):
        wrapped = coerce(ct.INT, value)
        assert (wrapped - value) % (2**32) == 0
        assert ct.INT.min_value <= wrapped <= ct.INT.max_value

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_wrap_idempotent(self, value):
        once = coerce(ct.INT, value)
        assert coerce(ct.INT, once) == once

    @given(st.integers(), st.integers(min_value=8, max_value=64).filter(
        lambda b: b in (8, 16, 32, 64)))
    def test_unsigned_wrap_nonnegative(self, value, bits):
        typ = ct.IntType(bits, signed=False)
        assert 0 <= typ.wrap(value) < 2**bits


class TestConfigArProperties:
    @settings(max_examples=50)
    @given(st.dictionaries(identifiers, config_values, min_size=1, max_size=8))
    def test_kv_roundtrip(self, entries):
        text = "".join(f"{k}={v}\n" for k, v in entries.items())
        ar = ConfigAR.parse(text, KeyValueDialect("="))
        reparsed = ConfigAR.parse(ar.serialize(), KeyValueDialect("="))
        for key, value in entries.items():
            assert reparsed.get(key) == value

    @settings(max_examples=50)
    @given(st.dictionaries(identifiers, config_values, min_size=1, max_size=8))
    def test_directive_roundtrip(self, entries):
        text = "".join(f"{k} {v}\n" for k, v in entries.items())
        ar = ConfigAR.parse(text, DirectiveDialect())
        reparsed = ConfigAR.parse(ar.serialize(), DirectiveDialect())
        for key, value in entries.items():
            assert reparsed.get(key) == value

    @settings(max_examples=50)
    @given(
        st.dictionaries(identifiers, config_values, min_size=1, max_size=6),
        identifiers,
        config_values,
    )
    def test_set_then_get(self, entries, key, value):
        text = "".join(f"{k}={v}\n" for k, v in entries.items())
        ar = ConfigAR.parse(text, KeyValueDialect("="))
        ar.set(key, value)
        assert ar.get(key) == value
        # Everything else is untouched.
        for other, other_value in entries.items():
            if other != key:
                assert ar.get(other) == other_value


class TestLabels:
    @given(st.dictionaries(identifiers, st.integers(0, 5), max_size=6),
           st.integers(0, 5))
    def test_within_hops_monotone(self, mapping, cut):
        labels = Labels.of(mapping)
        subset = labels.within_hops(cut)
        superset = labels.within_hops(cut + 1)
        assert subset <= superset
        assert superset <= labels.names()


class TestCFormat:
    @given(st.text(max_size=40), st.lists(
        st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=10), st.none()),
        max_size=4,
    ))
    def test_never_raises(self, fmt, args):
        # Formatting untrusted config data must never take the tool down.
        out = c_format(fmt, args)
        assert isinstance(out, str)

    @given(st.integers(-(2**31), 2**31 - 1))
    def test_decimal_faithful(self, value):
        assert c_format("%d", [value]) == str(value)

    def test_float_conversion_of_non_numeric_string(self):
        # A string that is not a number reads as 0.0, as it does for %d.
        assert c_format("%E", [":"]) == "0.000000e+00"
        assert c_format("%f", ["1.5"]) == "1.500000"
        assert c_format("%g", [2**2000]) == "0.000000"
