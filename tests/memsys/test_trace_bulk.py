"""Differential tests: the bulk trace parser against ``iter_trace``.

``parse_trace`` reads files and text blobs as bytes and converts them
block by block straight into :class:`PackedTrace` arrays; anything
outside that path's strict subset is re-parsed line by line by
:func:`iter_trace`, the semantic oracle.  These tests pin that the two
paths accept the same language with bit-identical results, and that
well-formed traces really take the bulk path.
"""

import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.memsys import MemSysConfig
from repro.memsys import trace as trace_mod
from repro.memsys.trace import (
    PackedTrace,
    iter_trace,
    parse_trace,
    synthesize_trace,
    write_trace,
)


def _oracle(source):
    return PackedTrace.from_requests(iter_trace(source))


def _assert_identical(got, want):
    assert got == want
    assert got.addrs.dtype == want.addrs.dtype == np.int64
    if want.times is not None:
        # bit-equal, so -0.0 and 0.0 would differ
        assert np.array_equal(
            got.times.view(np.int64), want.times.view(np.int64)
        )


def _outcome(parse, source):
    try:
        return parse(source)
    except TraceFormatError as error:
        return (type(error), error.lineno, str(error))


# ----------------------------------------------------------------------
# well-formed traces inside the bulk subset
# ----------------------------------------------------------------------
_blank = st.text(" \t", max_size=3)
_gap = st.text(" \t", min_size=1, max_size=3)
_comment = st.text(
    string.ascii_letters + string.digits + string.punctuation + " \t",
    max_size=12,
).map(lambda text: "#" + text)


@st.composite
def _address(draw):
    value = draw(
        st.one_of(
            st.integers(0, 4096),
            st.integers(0, 2**32),
            st.integers(0, 2**63 - 1),
        )
    )
    if draw(st.booleans()):
        return str(value)
    digits = format(value, "X" if draw(st.booleans()) else "x")
    digits = digits.zfill(draw(st.integers(len(digits), 16)))
    return draw(st.sampled_from(["0x", "0X"])) + digits


@st.composite
def _timestamps(draw, n):
    values = sorted(
        draw(
            st.lists(
                st.floats(0.0, 1e12, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    style = draw(st.sampled_from([repr, "{:.3f}".format, "{:e}".format]))
    return [style(value) for value in values]


@st.composite
def well_formed(draw):
    n = draw(st.integers(0, 24))
    timed = draw(st.booleans())
    times = draw(_timestamps(n)) if timed else [None] * n
    lines = []
    for when in times:
        while draw(st.integers(0, 4)) == 0:  # blank or comment lines
            lines.append(draw(_blank) + draw(st.just("") | _comment))
        fields = [draw(st.sampled_from("RWPArwpa")), draw(_address())]
        if when is not None:
            fields.append(when)
        line = draw(_blank)
        for index, field in enumerate(fields):
            line += (draw(_gap) if index else "") + field
        line += draw(_blank)
        if draw(st.booleans()):
            line += draw(_comment)
        lines.append(line)
    text = "\n".join(lines)
    if draw(st.booleans()):
        text += "\n"
    return text


class TestBulkMatchesLineParser:
    @settings(max_examples=150, deadline=None)
    @given(text=well_formed(), block=st.integers(1, 96))
    def test_well_formed_text_stays_on_the_bulk_path(self, text, block):
        # tiny blocks put block boundaries everywhere: mid-trace, inside
        # comment-only stretches, and inside lines longer than a block
        with mock.patch.object(trace_mod, "_BLOCK_BYTES", block):
            bulk = trace_mod._parse_bulk(text)
        _assert_identical(bulk, _oracle(text))

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.lists(
            st.sampled_from(
                [
                    "R", "w", "P", "a", "X", "RR", "0x10", "0X1f",
                    "0x", "16", "0", "00", "007", "0o17", "0b101",
                    "1_000", "+5", "-0", "-5", "99999999999999999999",
                    "9223372036854775807", "9223372036854775808",
                    "0x8000000000000000", "0x00000000000000001",
                    "1.5", "2.0", "-0.0", "1e3", "inf", "nan", "1_0.5",
                    "#", "# c", " ", "\t", "\n", "\r", "\x0b", "\xa0",
                    "é",
                ]
            ),
            max_size=30,
        ).map("".join),
        block=st.integers(1, 64),
    )
    def test_any_text_gets_the_line_parsers_verdict(self, text, block):
        with mock.patch.object(trace_mod, "_BLOCK_BYTES", block):
            got = _outcome(lambda s: parse_trace(s, packed=True), text)
        want = _outcome(_oracle, text)
        if isinstance(want, PackedTrace):
            _assert_identical(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "text",
        [
            "R 00\n",  # leading zeros: int(x, 0) takes all-zero runs
            "R 0o17\nW 0b101\n",
            "R 1_000\nW 0x_ff\n",
            "R +5\n",
            "R -0\n",
            "R 0x00000000000000001\n",  # 17 hex digits, small value
            "R 0x10\r\nW 0x20\r\n",
            "R\x0b0x10\n",  # str.split() whitespace beyond space/tab
            "R\xa00x10\n",
            "R 0x10 # café\n",
            "R 0x10 1_0.5\n",
        ],
    )
    def test_inputs_outside_the_subset_still_parse(self, text, tmp_path):
        with pytest.raises(trace_mod._NotBulk):
            trace_mod._parse_bulk(text)
        want = _oracle(text)
        _assert_identical(parse_trace(text, packed=True), want)
        path = tmp_path / "trace.trace"
        path.write_bytes(text.encode())
        _assert_identical(parse_trace(path, packed=True), _oracle(path))

    def test_negative_zero_timestamp_is_bit_exact(self):
        text = "R 0x10 -0.0\nW 0x20 0.0\n"
        bulk = trace_mod._parse_bulk(text)
        assert np.signbit(bulk.times).tolist() == [True, False]
        _assert_identical(bulk, _oracle(text))

    def test_timestamps_decreasing_across_a_block_boundary(self):
        text = "R 0x10 5.0\n# a comment-only block\nW 0x20 4.0\n"
        with mock.patch.object(trace_mod, "_BLOCK_BYTES", 12):
            with pytest.raises(TraceFormatError) as caught:
                parse_trace(text, packed=True)
        assert caught.value.lineno == 3
        assert "decreases" in str(caught.value)

    def test_list_output_is_the_packed_parse_materialized(self):
        text = "R 0x10 1.0\nw 32 2.5\n"
        packed = parse_trace(text, packed=True)
        assert parse_trace(text) == packed.to_requests()
        assert parse_trace(text.splitlines()) == parse_trace(text)


# ----------------------------------------------------------------------
# well-formed files must not silently fall back
# ----------------------------------------------------------------------
HBM_PIMULATOR_HEADER = (
    "# Physical Address (PA): [1 Rank][6 Channel][2 Bankgroup][2 Bank]"
    "[14 Row][5 Column][5 Offset]\n"
    "# 1 Rank: 0 for PIM, 1 for HBM\n"
    "# 6 Channel: a pseudo-channel\n"
    "\n"
    "# R/W MEM [channel_id] [bank_id] [row_id]\n"
    "# AB W\n"
    "\n"
)


@pytest.fixture
def line_parser_forbidden(monkeypatch):
    def _refuse(source):
        raise AssertionError("fell back to iter_trace")

    monkeypatch.setattr(trace_mod, "iter_trace", _refuse)


class TestNoSilentFallback:
    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("packed", [False, True])
    def test_write_trace_output(
        self, tmp_path, timed, packed, line_parser_forbidden
    ):
        config = MemSysConfig()
        trace = synthesize_trace(
            "random",
            5_000,
            config,
            seed=3,
            write_fraction=0.3,
            packed=True,
            interarrival_ns=4.0 if timed else None,
            interarrival="poisson" if timed else "fixed",
        )
        path = write_trace(tmp_path / "t.trace", trace)
        with mock.patch.object(trace_mod, "_BLOCK_BYTES", 4096):
            parsed = parse_trace(path, packed=packed)
        if packed:
            _assert_identical(parsed, trace)
        else:
            assert parsed == trace.to_requests()

    def test_commented_hbm_pimulator_header(
        self, tmp_path, line_parser_forbidden
    ):
        path = tmp_path / "pim.trace"
        path.write_text(
            HBM_PIMULATOR_HEADER
            + "R 0x00001a00\n"
            + "W 0x00001a20   # host write\n"
            + "P 0x00000000\n"
            + "A 0x000001c0\n"
        )
        parsed = parse_trace(path, packed=True)
        assert parsed.op_codes.tolist() == [0, 1, 2, 3]
        assert parsed.addrs.tolist() == [0x1A00, 0x1A20, 0, 0x1C0]
        assert parsed.times is None

    def test_empty_and_comment_only_traces(self, line_parser_forbidden):
        for text in ("", "\n\n", HBM_PIMULATOR_HEADER):
            parsed = parse_trace(text, packed=True)
            assert len(parsed) == 0
            assert parsed.times is None
