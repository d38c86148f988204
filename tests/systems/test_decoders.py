"""Edge cases for the injected-string decoders in `repro.systems.base`.

The decoders recover the *user-intended* value from an injected config
string; silent-violation detection compares that intent against the
system's effective value.  The contract under test: parseable text
decodes to the intended number, and unparseable text round-trips as a
string (never raises) so the comparison still runs.
"""

import pytest

from repro.systems import get_system
from repro.systems.base import (
    decode_bool,
    decode_int,
    decode_size,
    decode_string,
    decode_time_seconds,
)


class TestDecodeInt:
    @pytest.mark.parametrize(
        ("text", "value"),
        [
            ("80", 80),
            ("  80  ", 80),
            ("-1", -1),
            ("+5", 5),
            ("0", 0),
            ("007", 7),
            # Python's int() accepts underscore separators; the intent
            # is still the number.
            ("1_000", 1000),
        ],
    )
    def test_parseable(self, text, value):
        assert decode_int(text) == value

    @pytest.mark.parametrize(
        "text", ["abc", "10.5", "1e3", "0x10", "", "12 34", "--1", "nan"]
    )
    def test_unparseable_round_trips_stripped(self, text):
        assert decode_int(f" {text} ") == text

    def test_never_raises_on_junk(self):
        assert decode_int("\t\n") == ""


class TestDecodeSize:
    @pytest.mark.parametrize(
        ("text", "value"),
        [
            ("64k", 64 * 1024),
            ("64K", 64 * 1024),
            ("64kb", 64 * 1024),
            ("64KB", 64 * 1024),
            ("2m", 2 * 1024**2),
            ("2MB", 2 * 1024**2),
            ("1g", 1024**3),
            ("1Gb", 1024**3),
            # Whitespace between the number and the suffix is intent,
            # not an error.
            ("64 k", 64 * 1024),
            ("  8m  ", 8 * 1024**2),
            # Negative sizes decode; range checking is the checker's
            # job, not the decoder's.
            ("-1k", -1024),
            ("0k", 0),
        ],
    )
    def test_suffixed(self, text, value):
        assert decode_size(text) == value

    def test_plain_number_falls_through_to_int(self):
        assert decode_size("1048576") == 1048576
        assert decode_size(" 42 ") == 42

    @pytest.mark.parametrize("text", ["1.5k", "k", "kb", "xk", "--2m"])
    def test_bad_number_round_trips_unstripped(self, text):
        # A recognised suffix with an unparseable number returns the
        # *original* text (the silent-violation comparison sees the
        # raw injected string).
        assert decode_size(text) == text

    def test_unsuffixed_junk_round_trips_stripped(self):
        assert decode_size(" sixty-four ") == "sixty-four"

    def test_longest_suffix_wins(self):
        # "kb" must not be parsed as number "1k" + suffix "b" nor
        # mis-split as "1" + "k" leaving a trailing "b".
        assert decode_size("1kb") == 1024


class TestDecodeBoolAndFriends:
    @pytest.mark.parametrize(
        "word", ["on", "ON", "yes", "TRUE", "enable", "Enabled", "1"]
    )
    def test_truthy_words(self, word):
        assert decode_bool(word) == 1

    @pytest.mark.parametrize(
        "word", ["off", "No", "false", "disable", "DISABLED", "0"]
    )
    def test_falsy_words(self, word):
        assert decode_bool(word) == 0

    def test_unknown_word_round_trips(self):
        assert decode_bool("maybe") == "maybe"

    def test_string_strips(self):
        assert decode_string("  /var/www  ") == "/var/www"

    def test_time_is_int_semantics(self):
        assert decode_time_seconds(" 65 ") == 65
        assert decode_time_seconds("forever") == "forever"


class TestDecoderFallback:
    def test_unlisted_param_decodes_as_string(self):
        # decoder_for() must hand back the string decoder for params
        # with no ParamSpec row, so a row declaring decode="string" is
        # behaviourally identical to no row at all.
        system = get_system("vsftpd")
        assert system.decoder_for("no_such_param") is decode_string
