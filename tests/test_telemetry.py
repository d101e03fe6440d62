from __future__ import annotations

import re
from datetime import datetime

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oceanmine import telemetry
from oceanmine.errors import DataError
from oceanmine.telemetry import (
    HeaderFields,
    MessageBlock,
    parse_file,
    parse_stream,
    read_number,
)

import oracles
from conftest import SPLIT_ID_HEADER
from helpers import (
    ENDINGS,
    DroppedTokens,
    edited_sample,
    is_position_only,
    payload_of,
    read_header,
    render_block,
    render_stream,
    words_of,
)

SECOND_HEADER = (
    "02602 32134 73 32 K 2 2003-01-10 14:34:18 0.706 76.542 0.000 401647210"
)


class TestParseHeader:
    def test_reference_line(self):
        h = read_header(SPLIT_ID_HEADER)
        assert HeaderFields._fields == ("platform_id", "observed_at", "latitude", "longitude")
        assert h == ("02602", datetime(2003, 1, 10, 11, 50, 18), 0.691, 76.559)

    def test_split_and_merged_message_id_agree(self):
        # "29021 02" and "2902102" are the same message id, split or not
        merged = SPLIT_ID_HEADER.replace("29021 02", "2902102")
        assert read_header(SPLIT_ID_HEADER) == read_header(merged)
        # a split id is checked whole, and named as written
        with pytest.raises(DataError, match="^line 1: bad message id '29021 0x'$"):
            read_header(SPLIT_ID_HEADER.replace("29021 02", "29021 0x"))

    def test_twelve_token_line(self):
        h = read_header(SECOND_HEADER)
        assert h == ("02602", datetime(2003, 1, 10, 14, 34, 18), 0.706, 76.542)

    def test_latitude_out_of_range(self):
        bad = SPLIT_ID_HEADER.replace("0.691", "95.0")
        with pytest.raises(DataError, match=r"^line 1: latitude 95.0 out of \[-90, 90\]$"):
            read_header(bad)

    def test_longitude_out_of_range(self):
        bad = SPLIT_ID_HEADER.replace("76.559", "191.0")
        with pytest.raises(DataError, match=r"^line 1: longitude 191.0 out of \[-180, 180\]$"):
            read_header(bad)

    def test_eleven_tokens_rejected(self):
        tokens = SECOND_HEADER.split()[:11]
        with pytest.raises(DataError, match="^line 1: expected at least 12 tokens, got 11$"):
            read_header(" ".join(tokens))

    def test_bad_class_code(self):
        with pytest.raises(DataError, match="^line 1: bad class code 'KX'$"):
            read_header(SECOND_HEADER.replace(" K ", " KX "))
        with pytest.raises(DataError, match="^line 1: bad class code 'k'$"):
            read_header(SECOND_HEADER.replace(" K ", " k "))
        # capitals of other scripts and number forms are not ASCII: the line
        # is refused for its first non-ASCII character before any token check
        for code, byte in (("É", "0xc9"), ("Ⅻ", "0x216b")):
            with pytest.raises(DataError, match=f"^line 1: non-ASCII byte {byte}$"):
                read_header(SECOND_HEADER.replace(" K ", f" {code} "))

    def test_timezone_suffix_rejected(self):
        with pytest.raises(DataError, match="^line 1: bad timestamp tokens"):
            read_header(SECOND_HEADER.replace("14:34:18", "14:34:18Z"))
        with pytest.raises(DataError, match="^line 1: bad timestamp tokens"):
            read_header(SECOND_HEADER.replace("14:34:18", "14:34:18+05:30"))

    def test_line_number_in_message(self):
        with pytest.raises(DataError, match="^line 7: expected at least 12 tokens, got 3$"):
            read_header("02602 1 2", line_no=7)

    def test_fractional_seconds_kept(self):
        h = read_header(SECOND_HEADER.replace("14:34:18", "14:34:18.5"))
        assert h.observed_at.microsecond == 500_000

    @pytest.mark.parametrize(
        "old, new",
        [
            (" 73 ", " 7_3 "),  # field_a
            (" 32 ", " 3_2 "),  # field_b
            ("0.706", "0_0.706"),  # latitude
            ("76.542", "7_6.542"),  # longitude
            ("0.000", "0.0_00"),  # altitude
            ("0.000", "nan"),
            ("0.000", "inf"),
            ("0.000", "-Infinity"),
            ("0.000", "1e999"),  # float() overflows to inf
            (" K 2 ", " K \u00b2 "),  # pass count: "\u00b2".isdigit(), int() fails
            ("02602", "\u0660\u0662602"),  # platform id: r"\d" matches Arabic-Indic
            ("32134", "29021\u00b2"),  # message id
        ],
    )
    def test_numbers_int_and_float_would_misread(self, old, new):
        # int("7_3") == 73 and float("nan") parse, and str.isdigit() takes
        # "\u00b2", but none of them is a header number
        bad = SECOND_HEADER.replace(old, new, 1)
        assert bad != SECOND_HEADER
        with pytest.raises(DataError, match="line 7"):
            read_header(bad, line_no=7)

    def test_numbers_rejected_in_a_stream_at_their_line(self):
        text = f"{SPLIT_ID_HEADER}\n{SECOND_HEADER.replace(' 73 ', ' 7_3 ')}\n"
        with pytest.raises(DataError, match="line 2"):
            parse_stream(text)


class TestReadNumber:
    @settings(max_examples=400, deadline=None)
    @given(
        text=st.one_of(
            st.text(alphabet="0123456789+-.eE_ naifIN", max_size=10),
            st.from_regex(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]{1,3})?",
                          fullmatch=True),
            st.floats().map(repr),
            st.integers().map(str),
            st.text(max_size=6),
        )
    )
    @example(text="1_0")
    @example(text="+1")
    @example(text="-0")
    @example(text="1e5")
    @example(text="1E-5")
    @example(text="1e999")
    @example(text="nan")
    @example(text="inf")
    @example(text="-Infinity")
    @example(text="")
    @example(text=".")
    @example(text="5.")
    @example(text=".5")
    @example(text="e5")
    @example(text=" 1")
    @example(text="1 ")
    @example(text="\u0663")  # Arabic-Indic three
    @example(text="\uff11")  # fullwidth one
    @example(text="0x10")
    def test_matches_the_reference_grammar(self, text):
        for kind in (int, float):
            want = oracles.read_number_reference(text, kind)
            if want is None:
                with pytest.raises(ValueError):
                    read_number(text, kind)
            else:
                got = read_number(text, kind)
                # repr tells -0.0 from 0.0 and an int from a float
                assert repr(got) == repr(want), (text, kind)


# (date token, time token, the header's timestamp or the error text)
TIMESTAMP_TABLE = [
    ("2003-00-10", "11:50:18", "unparseable timestamp '2003-00-10 11:50:18'"),
    ("2003-13-10", "11:50:18", "unparseable timestamp '2003-13-10 11:50:18'"),
    ("2003-02-29", "11:50:18", "unparseable timestamp '2003-02-29 11:50:18'"),
    ("2003-02-30", "11:50:18", "unparseable timestamp '2003-02-30 11:50:18'"),
    ("2003-01-00", "11:50:18", "unparseable timestamp '2003-01-00 11:50:18'"),
    ("2003-01-32", "11:50:18", "unparseable timestamp '2003-01-32 11:50:18'"),
    ("2003-01-10", "24:00:00", "unparseable timestamp '2003-01-10 24:00:00'"),
    ("2003-01-10", "11:60:18", "unparseable timestamp '2003-01-10 11:60:18'"),
    ("2003-01-10", "11:50:60", "unparseable timestamp '2003-01-10 11:50:60'"),
    ("2003-01-10", "11:50:61", "unparseable timestamp '2003-01-10 11:50:61'"),
    ("0000-01-10", "11:50:18", "unparseable timestamp '0000-01-10 11:50:18'"),
    ("2003-01-10", "11:50:18.1234567",
     "unparseable timestamp '2003-01-10 11:50:18.1234567'"),
    ("2003-01-10", "11:50:18.5", datetime(2003, 1, 10, 11, 50, 18, 500000)),
    ("2003-01-10", "11:50:18.123456", datetime(2003, 1, 10, 11, 50, 18, 123456)),
    ("2004-02-29", "23:59:59", datetime(2004, 2, 29, 23, 59, 59)),
    ("0001-01-01", "00:00:00", datetime(1, 1, 1)),
    ("9999-12-31", "23:59:59.999999", datetime(9999, 12, 31, 23, 59, 59, 999999)),
    ("2003-01-10", "11:50:18.0000001",  # seven digits, one microsecond if cut
     "unparseable timestamp '2003-01-10 11:50:18.0000001'"),
]


class TestTimestamps:
    @pytest.mark.parametrize("date_tok, time_tok, want", TIMESTAMP_TABLE)
    def test_header_timestamp(self, sample_path, date_tok, time_tok, want):
        line = SECOND_HEADER.replace("2003-01-10 14:34:18", f"{date_tok} {time_tok}")
        # The sample's second header, line 7, as parse_stream reads it; the
        # block time on line 8 restamps a header it accepts.
        edit = (7, "2003-01-10 14:34:18", f"{date_tok} {time_tok}")
        if isinstance(want, datetime):
            assert read_header(line, line_no=4).observed_at == want
            for ending in ENDINGS.values():
                blocks = parse_stream(edited_sample(sample_path, [edit], ending))
                assert blocks[1].header == read_header(line)._replace(
                    observed_at=datetime(2003, 1, 10, 15, 28, 40)
                )
        else:
            with pytest.raises(DataError) as err:
                read_header(line, line_no=4)
            assert str(err.value) == f"line 4: {want}"
            for ending in ENDINGS.values():
                with pytest.raises(DataError) as err:
                    parse_stream(edited_sample(sample_path, [edit], ending))
                assert str(err.value) == f"line 7: {want}"

    @pytest.mark.parametrize("date_tok, time_tok, want", TIMESTAMP_TABLE)
    def test_block_time_line_timestamp(self, date_tok, time_tok, want):
        text = f"{SECOND_HEADER}\n{date_tok} {time_tok} 1 4D 0B\n"
        if isinstance(want, datetime):
            (block,) = parse_stream(text)
            assert block.header.observed_at == want
        else:
            with pytest.raises(DataError) as err:
                parse_stream(text)
            assert str(err.value) == f"line 2: {want}"

    @settings(max_examples=300, deadline=None)
    @given(
        date_tok=st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", fullmatch=True),
        time_tok=st.from_regex(r"[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{1,8})?", fullmatch=True),
    )
    @example(date_tok="2003-01-10", time_tok="11:50:18.0")
    @example(date_tok="2000-02-29", time_tok="00:00:00.000001")
    def test_agrees_with_strptime(self, date_tok, time_tok):
        text = f"{date_tok} {time_tok}"
        fmt = "%Y-%m-%d %H:%M:%S.%f" if "." in time_tok else "%Y-%m-%d %H:%M:%S"
        line = SECOND_HEADER.replace("2003-01-10 14:34:18", text)
        try:
            want = datetime.strptime(text, fmt)
        except ValueError:
            with pytest.raises(DataError, match="unparseable timestamp"):
                read_header(line)
        else:
            assert read_header(line).observed_at == want


def block_words(lines):
    """Words of a one-block dump whose data lines are lines."""
    (block,) = parse_stream("\n".join([SPLIT_ID_HEADER, *lines]))
    return words_of(block)


class TestWordsOf:
    """Byte pairing into words, on the parse_stream path."""

    def test_single_line_pairs(self):
        assert block_words(["35 9D 89 3E"]) == [13725, 35134]

    def test_pairs_cross_line_boundaries(self):
        assert block_words(["EE 05", "35 9D"]) == [60933, 13725]
        assert block_words(["EE", "05 35", "9D"]) == [60933, 13725]

    def test_extreme_words(self):
        assert block_words(["00 00"]) == [0]
        assert block_words(["FF FF"]) == [65535]

    def test_case_insensitive(self):
        assert block_words(["ee 05"]) == [60933]

    def test_bad_token(self):
        with pytest.raises(DataError, match="bad hex byte token '9'"):
            block_words(["35 9"])
        with pytest.raises(DataError, match="bad hex byte token 'GG'"):
            block_words(["GG 00"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("35 9 89 3E", "line 2: bad hex byte token '9'"),
            ("35 9D 89 3G", "line 2: bad hex byte token '3G'"),
            ("35 9D0 8 3E", "line 2: bad hex byte token '9D0'"),
            ("35 9D zz 3", "line 2: bad hex byte token 'zz'"),
            ("35 0x9D", "line 2: bad hex byte token '0x9D'"),
            ("2003-01-10 12:49:18 1 EE 0G 35 9", "line 2: bad hex byte token '0G'"),
            ("2003-01-10 12:49:18 1 EE 05 35 9DD", "line 2: bad hex byte token '9DD'"),
        ],
    )
    def test_bad_token_named(self, line, message):
        with pytest.raises(DataError) as err:
            block_words([line, "00 00"])
        assert str(err.value) == message

    def test_odd_byte_count(self):
        with pytest.raises(DataError, match="block has 3 bytes, one unpaired"):
            block_words(["35 9D 89"])


class TestParseStream:
    def test_two_blocks(self):
        text = f"{SPLIT_ID_HEADER}\n35 9D 89 3E 07 CB\n{SECOND_HEADER}\n4D 0B 70 B9\n"
        blocks = parse_stream(text)
        assert len(blocks) == 2
        assert blocks[0].header == read_header(SPLIT_ID_HEADER)
        assert words_of(blocks[0]) == [0x359D, 0x893E, 0x07CB]
        assert blocks[1].header == read_header(SECOND_HEADER)
        assert words_of(blocks[1]) == [0x4D0B, 0x70B9]

    def test_block_time_line(self):
        text = (
            f"{SPLIT_ID_HEADER}\n"
            "2003-01-10 12:49:18 1 EE 05\n"
            "35 9D 89 3E\n"
        )
        (block,) = parse_stream(text)
        # the block time restamps the header; nothing else of it changes
        assert block.header == read_header(SPLIT_ID_HEADER)._replace(
            observed_at=datetime(2003, 1, 10, 12, 49, 18)
        )
        assert words_of(block) == [0xEE05, 0x359D, 0x893E]

    def test_first_block_time_wins(self):
        text = (
            f"{SPLIT_ID_HEADER}\n"
            "2003-01-10 12:49:18 1 EE 05\n"
            "2014-05-01 00:46:47 1 9F 06\n"
        )
        (block,) = parse_stream(text)
        assert block.header.observed_at == datetime(2003, 1, 10, 12, 49, 18)
        assert words_of(block) == [0xEE05, 0x9F06]

    def test_header_only_block_retained(self):
        blocks = parse_stream(f"{SPLIT_ID_HEADER}\n{SECOND_HEADER}\n4D 0B\n")
        assert len(blocks) == 2
        assert words_of(blocks[0]) == []
        assert is_position_only(blocks[0])
        assert not is_position_only(blocks[1])

    def test_bytes_pair_across_lines_within_block(self):
        text = f"{SPLIT_ID_HEADER}\nEE\n05 35\n9D\n"
        (block,) = parse_stream(text)
        assert words_of(block) == [0xEE05, 0x359D]

    def test_odd_byte_block_reports_span(self):
        text = f"{SPLIT_ID_HEADER}\n35 9D 89\n"
        with pytest.raises(DataError) as err:
            parse_stream(text)
        assert str(err.value).startswith("lines 1..2: ")

    def test_empty_input(self):
        with pytest.raises(DataError, match="^no message blocks in input$"):
            parse_stream("")
        with pytest.raises(DataError, match="^no message blocks in input$"):
            parse_stream("\n   \n")

    def test_data_line_before_header(self):
        with pytest.raises(DataError, match="line 1: data line before any header"):
            parse_stream("35 9D\n")

    def test_blank_lines_and_crlf_tolerated(self):
        text = f"{SPLIT_ID_HEADER}\r\n\r\n35 9D 89 3E\r\n"
        (block,) = parse_stream(text)
        assert words_of(block) == [0x359D, 0x893E]

    def test_lines_end_only_at_lf_cr_crlf(self, tmp_path):
        # \x0b, \x0c and \x1c-\x1e are whitespace inside a line, not breaks
        text = (
            f"{SPLIT_ID_HEADER}\n35 9D\x0c89 3E\x0c\n"
            f"{SECOND_HEADER}\r\n4D 0B\x0b70 B9\x1c\n\x1d07 CB\x1e\r02 03\n"
        )
        path = tmp_path / "dump.txt"
        path.write_bytes(text.encode("ascii"))
        from_text = parse_stream(text)
        from_file = parse_file(path)
        assert [b.source_line_span for b in from_text] == [(1, 2), (3, 6)]
        assert [b.source_line_span for b in from_file] == [(1, 2), (3, 6)]
        assert from_text == from_file
        assert words_of(from_file[1]) == [0x4D0B, 0x70B9, 0x07CB, 0x0203]

    def test_first_faulty_line_is_reported(self):
        with pytest.raises(DataError, match="line 2: bad hex byte token 'GG'"):
            parse_stream(f"{SPLIT_ID_HEADER}\nGG\n35 \xe9\n")
        with pytest.raises(DataError, match="line 3: non-ASCII byte 0xe9"):
            parse_stream(f"{SPLIT_ID_HEADER}\r35 9D\r\nGG \xe9\n")

    @pytest.mark.parametrize(
        "name, accepting, line_no, old, new",
        [
            ("_CLASS_RE", re.compile(r"[A-Z]+"), 1, " K ", " KX "),
            ("_stamp", lambda date_tok, time_tok, line_no: datetime(2003, 1, 10),
             2, "12:49:18 ", "12:49:18.1234567 "),
        ],
        ids=["header", "block-time"],
    )
    def test_a_second_grammar_cannot_accept_a_line(
        self, sample_path, monkeypatch, name, accepting, line_no, old, new
    ):
        # The pattern and its value checks alone take a line: _refuse asks
        # the token checks only to name the fault, and takes no answer.
        monkeypatch.setattr(telemetry, name, accepting)
        lines = sample_path.read_text().splitlines(keepends=True)
        lines[line_no - 1] = lines[line_no - 1].replace(old, new)
        with pytest.raises(AssertionError, match=f"^line {line_no} was refused but reads as valid$"):
            parse_stream("".join(lines))

    @pytest.mark.parametrize("ending", ENDINGS.values(), ids=list(ENDINGS))
    @pytest.mark.parametrize(
        "edits, message",
        [
            ([(7, " 0.706 ", " 91.0 ")], "line 7: latitude 91.0 out of [-90, 90]"),
            ([(7, " 76.542 ", " 181.0 ")], "line 7: longitude 181.0 out of [-180, 180]"),
            ([(7, " 0.000 ", " 1e999 ")],
             "line 7: bad coordinate tokens '0.706' '76.542' '1e999'"),
            # each value is finite, though their sum is not
            ([(7, " 0.706 ", " 1e308 "), (7, " 0.000 ", " 1e308 ")],
             "line 7: latitude 1e+308 out of [-90, 90]"),
            # the unpaired block before a bad header is named first
            ([(3, " 62", ""), (7, " 0.706 ", " 91.0 ")],
             "lines 1..6: block has 29 bytes, one unpaired"),
            # a header's timestamp is checked before its coordinates
            ([(7, " 14:34:18 0.706 ", " 24:00:00 91.0 ")],
             "line 7: unparseable timestamp '2003-01-10 24:00:00'"),
        ],
        ids=["latitude", "longitude", "altitude", "finite-sum-overflows", "unpaired-first",
             "timestamp-first"],
    )
    def test_header_value_fault_named_at_its_line(self, sample_path, edits, message, ending):
        with pytest.raises(DataError) as err:
            parse_stream(edited_sample(sample_path, edits, ending))
        assert str(err.value) == message

    def test_block_order_follows_input(self, sample_path):
        blocks = parse_stream(sample_path.read_text())
        stamps = [b.header.observed_at for b in blocks]
        assert stamps == sorted(stamps)
        assert len(blocks) == 6

    def test_word_attribution(self, sample_path):
        # every byte token in the file lands in exactly one block's words
        text = sample_path.read_text()
        byte_tokens = 0
        for line in text.splitlines():
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens[0]) == 5:  # header line
                continue
            if "-" in tokens[0]:  # block time line: date time seq bytes...
                byte_tokens += len(tokens) - 3
            else:
                byte_tokens += len(tokens)
        blocks = parse_stream(text)
        assert sum(len(words_of(b)) for b in blocks) == byte_tokens // 2


# --- round trip ---------------------------------------------------------------

_ts = st.datetimes(
    min_value=datetime(1990, 1, 1),
    max_value=datetime(2030, 12, 31),
).map(lambda d: d.replace(microsecond=0))


@st.composite
def blocks_strategy(draw):
    """A block, its block time or None, and the header tokens parse drops."""
    header = HeaderFields(
        platform_id=f"{draw(st.integers(0, 99999)):05d}",
        observed_at=draw(_ts),
        latitude=draw(
            st.floats(min_value=-90, max_value=90, allow_nan=False).map(
                lambda v: round(v, 3)
            )
        ),
        longitude=draw(
            st.floats(min_value=-180, max_value=180, allow_nan=False).map(
                lambda v: round(v, 3)
            )
        ),
    )
    dropped = DroppedTokens(
        message_id=str(draw(st.integers(0, 10 ** 9))),
        field_a=draw(st.integers(0, 99)),
        field_b=draw(st.integers(0, 99)),
        class_code=draw(st.sampled_from("ABKZ")),
        pass_count=draw(st.integers(0, 9)),
        altitude_or_zero=draw(st.floats(allow_nan=False, allow_infinity=False)),
        transmitter_id=str(draw(st.integers(0, 10 ** 9))),
    )
    payload = draw(st.lists(st.integers(0, 0xFFFF), max_size=12).map(payload_of))
    block = MessageBlock(header=header, payload=payload, source_line_span=None)
    return block, draw(st.none() | _ts), dropped


def without_spans(blocks):
    """The blocks with no line spans: a rendering has its own line layout."""
    return [b._replace(source_line_span=None) for b in blocks]


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(drawn=st.lists(blocks_strategy(), min_size=1, max_size=4))
    def test_render_then_parse_is_identity(self, drawn):
        text = "".join(render_block(*d) for d in drawn)
        want = [
            b if t is None else b._replace(header=b.header._replace(observed_at=t))
            for b, t, _ in drawn
        ]
        assert without_spans(parse_stream(text)) == want

    def test_sample_file_round_trips(self, sample_path):
        blocks = parse_stream(sample_path.read_text())
        assert without_spans(parse_stream(render_stream(blocks))) == without_spans(blocks)

    def test_render_block_single(self):
        (block,) = parse_stream(f"{SPLIT_ID_HEADER}\n35 9D 89 3E 07 CB\n")
        again = parse_stream(render_block(block))
        assert without_spans(again) == without_spans([block])


# --- fuzz ---------------------------------------------------------------------

_FRAGMENTS = [
    SPLIT_ID_HEADER.encode(),
    SECOND_HEADER.encode(),
    b"35 9D",
    b"89",
    b"GG",
    b"2003-01-10 12:00:00 1",
    b" ",
    b"\n",
    b"\r",
    b"\r\n",
    b"\x0c",
    b"\xe9",
]


class TestFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.binary(max_size=200)
        | st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map(b"".join)
    )
    def test_parse_file_returns_blocks_or_raises_data_error(self, data, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_bytes(data)
        try:
            blocks = parse_file(path)
        except DataError:
            return
        assert blocks and all(isinstance(b, MessageBlock) for b in blocks)


# --- parse_stream against the line-by-line reading ------------------------------

CORPUS_BLOCK = (
    "10028 12345 67 45 32 K 3 2009-10-13 11:03:26 -21.543 -88.957 0.000 123456789\n"
    "2009-10-13 12:01:02 1 49 25 89 3E 07 CB\n"
    "4A 91 89 54 07 62\n"
)

_HEADERS = [
    SPLIT_ID_HEADER,
    "02602\t29021 02\x0b65 32 K 2 2003-01-10 11:50:18.0 -0.0 76.559 .5e1 4016\x0c",
    "02602\x1c29021 02 65\x1f32 K 2 2003-01-10 11:50:18.0 0.691 76.559 0.000 4016\x00\x7f",
]
_BODY_LINES = [
    "35 9D",
    "4A 91 89 54 07 62",
    "\t35\x0b9D\x0c 0a 0B",
    "35\x1c9D\x1f",
    "",
    "2003-01-10 12:00:00 1 35 9D",  # a block time line carrying bytes
    "2003-01-10 12:00:00 7",
    "2003-01-10 12:00:00",
    "2003-01-10\x1d12:00:00\x1e1\x1c35 9D",
]
# One line each for checks that the block pattern cannot make alone.
_FAULTY_LINES = [
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18.0 90.0001 76.559 0.000 401647210",
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18.0 0.691 76.559 1e999 401647210",
    "02602 29021 +5 02 65 32 K 2 2003-01-10 11:50:18.0 0.691 76.559 0.000 401647210",
    "02602 29021 02 65 32 K 2 2003-02-29 11:50:18.0 0.691 76.559 0.000 401647210",
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18.0 0.691 180.5 0.000 401647210",
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18.0 0.691 76.559 0.000 40164\xe9",
    f"{SPLIT_ID_HEADER} 35 9D",
    "89",
    "GG",
    "35 9D9",
    "359D",
    "2003-01-10 12:00:00 12AB 35",
    "2003-01-10 12:00:00 4A 35",
    "2003-01-10 12:00:00.1234567 1",
    "2003-02-30 12:00:00 1",
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18.0000001 0.691 76.559 0.000 401647210",
    # two header faults: the one earlier in the token table is named
    "02602 29021 02 65 32 k x 2003-01-10 11:50:18.0 0.691 76.559 0.000 401647210",
    "02602 29021 0x 6_5 32 K 2 2003-01-10 11:50:18.0 0.691 76.559 0.000 401647210",
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18Z 0.691 7_6.559 0.000 401647210",
]
_ENDINGS = ["\n", "\r", "\r\n", "\n\n", " \n", "\t\r\n"]


@st.composite
def dumps_strategy(draw, faults=True):
    """Blocks of header and body lines and at most one faulty line, each
    line with its own ending, the last one optional, and blank lines
    before and after."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        lines.append(draw(st.sampled_from(_HEADERS)))
        lines += draw(st.lists(st.sampled_from(_BODY_LINES), max_size=4))
    if faults and draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(_FAULTY_LINES)))
    text = "".join(line + draw(st.sampled_from(_ENDINGS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    lead = draw(st.sampled_from(["", "\n", " \r\n\t"]))
    tail = draw(st.sampled_from(["", "\n", "\r\r", " \x1e"]))
    return (lead + text + tail).encode()


@st.composite
def noisy_dumps_strategy(draw):
    """A valid dump with controls, line breaks, tabs and a non-ASCII byte
    put in at random offsets."""
    data = bytearray(draw(dumps_strategy(faults=False) | st.just(CORPUS_BLOCK.encode())))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.sampled_from([b"\x00", b"\x1b", b"\x7f", b"\x1c", b"\n",
                                            b"\r", b"\t", b"\xe9"]))
    return bytes(data)


_LINE_FRAGMENTS = _FRAGMENTS + [
    s.encode()
    for s in [CORPUS_BLOCK, "\t", "\x0b", "\x1c", "\x1f"]
    + _HEADERS + _BODY_LINES + _FAULTY_LINES
]


class TestBlockReading:
    """parse_stream reads a dump as oracles.walk_lines does, line by line:
    the same blocks and spans, or an error of the same type and text."""

    @settings(max_examples=1500, deadline=None)
    @given(
        data=dumps_strategy()
        | st.lists(st.sampled_from(_LINE_FRAGMENTS), max_size=30).map(b"".join)
    )
    @example(data=b"")
    # valid shapes outside the common header, block time line, byte lines
    @example(data=CORPUS_BLOCK.encode() + b"2009-10-13 12:01:02 2 35 9D\n")
    @example(data=CORPUS_BLOCK.encode() + b"2009-10-13 13:00:00\n35 9D\n")
    @example(data=f"{SPLIT_ID_HEADER}\n35 9D\n2003-01-10 12:00:00 1\n".encode())
    @example(data=f"{SPLIT_ID_HEADER}\n2003-01-10 12:00:00\n35 9D\n".encode())
    @example(data=f"{SPLIT_ID_HEADER}\x1c\n2003-01-10\x1d12:00:00 1\x1e35\n9D\x1f0B 00\n".encode())
    @example(data=CORPUS_BLOCK.replace("\n", "\r").encode() + b"\r\r  ")
    # a transmitter id of control characters is an ASCII token
    @example(data=SPLIT_ID_HEADER.replace("401647210", "4016\x00\x7f").encode())
    # an unpaired byte comes before the header that fails to close it
    @example(data=f"{SPLIT_ID_HEADER}\n89\n02602\n 29021 02 65".encode())
    # a lone platform id is a header line with too few tokens
    @example(data=b"02602\n 29021 02 65 32 K 2 2003-01-10 11:50:18.0 0.691 76.559 0.000 1\n")
    def test_blocks_and_errors_equal_the_walkers(self, data):
        self.check_agree(data.decode("latin-1"))

    @settings(max_examples=1000, deadline=None)
    @given(data=noisy_dumps_strategy())
    def test_noise_in_a_valid_dump(self, data):
        self.check_agree(data.decode("latin-1"))

    @pytest.mark.parametrize("line", _FAULTY_LINES)
    def test_each_fault_is_left_to_the_walker(self, line):
        # after a block, before a block time line, and right after a header,
        # each fault is named as the line-by-line reading names it
        self.check_agree(f"{CORPUS_BLOCK}{line}\n35 9D\n")
        self.check_agree(f"{CORPUS_BLOCK}{line}\n2003-01-10 12:00:00 1 35 9D\n")
        self.check_agree(f"{SPLIT_ID_HEADER}\r\n{line}\r\n35 9D")

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_sample_and_corpus_block_under_each_ending(self, sample_path, ending):
        self.check_agree(sample_path.read_text().replace("\n", ending))
        (block,) = parse_stream(CORPUS_BLOCK.replace("\n", ending))
        assert block.source_line_span == (1, 3)
        assert words_of(block)[:2] == [0x4925, 0x893E]

    @staticmethod
    def check_agree(text):
        """parse_stream gives the walker's blocks and spans, or raises the
        walker's error."""
        try:
            want = oracles.walk_lines(text)
        except DataError as e:
            with pytest.raises(DataError) as raised:
                parse_stream(text)
            assert type(raised.value) is type(e) is DataError
            assert str(raised.value) == str(e)
            return
        # repr() tells -0.0 from 0.0, which == does not
        assert repr(parse_stream(text)) == repr(want)
