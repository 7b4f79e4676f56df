"""Fuzz-style malformed-input suite for the memory-trace parser.

The robustness contract: for *any* text input — truncated, garbled,
dialect-mixed, or randomly mutated — :func:`repro.memsys.parse_trace`
either succeeds or raises :class:`~repro.errors.TraceFormatError`
(a ``ValueError``) carrying the 1-based line number, and its bulk
array path agrees with the line-by-line :func:`iter_trace` on both the
result and the exact error.  It must never
leak an ``IndexError``, ``UnboundLocalError``, ``AttributeError``, or
any other accidental exception from its internals.
"""

import random

import pytest

from repro.errors import TraceFormatError
from repro.memsys import MemSysConfig
from repro.memsys.trace import (
    PackedTrace,
    format_trace,
    iter_trace,
    parse_trace,
    synthesize_trace,
)

#: A small valid timestamped trace to mutate.
VALID = (
    "R 0x00000100 10.0\n"
    "W 0x00000140 20.0\n"
    "P 0x00000180 30.0\n"
    "A 0x000001c0 40.0\n"
)


def _attempt(text):
    """Parse; malformed input must surface as TraceFormatError only,
    the very error (type, line, message) the line parser raises."""
    try:
        expected = PackedTrace.from_requests(iter_trace(text))
    except TraceFormatError as error:
        expected = error
    try:
        parsed = parse_trace(text, packed=True)
    except TraceFormatError as error:
        assert isinstance(error, ValueError)
        assert "line" in str(error)
        assert (type(error), error.lineno, str(error)) == (
            type(expected),
            getattr(expected, "lineno", None),
            str(expected),
        )
        return error
    assert parsed == expected
    return None


class TestMalformedLines:
    @pytest.mark.parametrize(
        "line",
        [
            "R",  # missing address
            "R 0x100 1.0 extra",  # too many tokens
            "FLY 0x100",  # unknown mnemonic
            "R banana",  # non-numeric address
            "R 007",  # leading zeros: not an int(x, 0) literal
            "R -0x100",  # negative address
            "R 99999999999999999999",  # does not fit in int64
            "R 0x8000000000000000",  # 2**63, one past the largest
            "R 0x100 banana",  # non-numeric timestamp
            "R 0x100 -1.0",  # negative timestamp
            "R 0x100 nan",  # non-finite timestamp
            "R 0x100 inf",
            "R 0x100 1e999",  # overflows to inf
        ],
    )
    def test_bad_line_is_a_typed_error(self, line):
        error = _attempt(line + "\n")
        assert error is not None
        assert error.lineno == 1

    def test_decreasing_timestamps_rejected(self):
        error = _attempt("R 0x100 10.0\nW 0x140 5.0\n")
        assert error is not None
        assert error.lineno == 2

    def test_mixed_timed_and_untimed_rejected(self):
        error = _attempt("R 0x100 10.0\nW 0x140\n")
        assert error is not None
        assert "timestamp" in str(error)

    def test_wrong_dialect_program_trace(self):
        # an HBM-PIMulator program trace fed to the memory parser:
        # typed error, not a crash
        program = 'W GRF_A 0 "0x1"\nPIM MAC GRF_A BANK GRF_A\nAB W\n'
        assert _attempt(program) is not None


class TestTruncation:
    def test_every_prefix_parses_or_raises_typed(self):
        # character-level truncation sweeps the parser through every
        # partial-token state
        for cut in range(len(VALID)):
            _attempt(VALID[:cut])

    def test_truncated_final_line_variants(self):
        for cut in range(1, len("P 0x00000200 50.0")):
            text = VALID + "P 0x00000200 50.0"[:cut] + "\n"
            _attempt(text)


class TestRandomMutation:
    @pytest.mark.parametrize("seed", range(20))
    def test_byte_mutations_never_crash(self, seed):
        rng = random.Random(seed)
        text = list(VALID)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(text))
            text[pos] = chr(rng.randrange(32, 127))
        _attempt("".join(text))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_token_soup_never_crashes(self, seed):
        rng = random.Random(1000 + seed)
        tokens = [
            "R", "W", "P", "A", "0x100", "-5", "1.0", "nan",
            "@3.0", '"0x1"', "#", "GRF_A", "banana", "",
        ]
        lines = []
        for _ in range(rng.randrange(1, 12)):
            lines.append(
                " ".join(
                    rng.choice(tokens)
                    for _ in range(rng.randrange(0, 5))
                )
            )
        _attempt("\n".join(lines) + "\n")

    @pytest.mark.parametrize("seed", range(10))
    def test_line_shuffles_of_valid_trace(self, seed):
        # shuffling timestamped lines usually breaks monotonicity —
        # the parser must call that out, never crash
        rng = random.Random(seed)
        lines = VALID.strip().split("\n")
        rng.shuffle(lines)
        _attempt("\n".join(lines) + "\n")


class TestRoundTripStaysClean:
    def test_synthesized_trace_round_trips(self):
        config = MemSysConfig(n_channels=2)
        requests = synthesize_trace(
            "random", 100, config, seed=0, interarrival_ns=10.0
        )
        text = format_trace(requests)
        parsed = parse_trace(text)
        assert len(parsed) == 100

    def test_comments_and_blanks_survive_anywhere(self):
        noisy = "# header\n\n" + VALID.replace(
            "\n", "  # tail comment\n\n"
        )
        assert len(parse_trace(noisy)) == 4
