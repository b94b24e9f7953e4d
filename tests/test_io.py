"""Indicator file formats."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmark import IndicatorVector, InvalidIndicatorsError, MarkingError, ParseError, mark
from dmark import io
from dmark.io import (
    _JOIN_MAX,
    _LOADTXT_MIN,
    read_indicators,
    write_indicators,
    write_marked_indices,
)
from dmark.markers import ALGORITHM_NAMES


def reference_bytes(indices) -> bytes:
    return "".join(f"{i}\n" for i in sorted(int(i) for i in indices)).encode("ascii")


def test_text_roundtrip(tmp_path):
    p = tmp_path / "x.txt"
    vals = np.array([4.0, 1.0, 0.125, 3.0e-7])
    write_indicators(p, vals)
    iv = read_indicators(p)
    assert np.array_equal(iv.values, vals)


def test_binary_roundtrip(tmp_path):
    p = tmp_path / "x.f64"
    vals = np.random.default_rng(1).random(100)
    write_indicators(p, vals)
    iv = read_indicators(p)
    assert np.array_equal(iv.values, vals)


def test_readers_hand_over_their_buffers(tmp_path):
    # the .f64 values view the bytes read, and both formats give the same doubles,
    # on both sides of the loadtxt cutoff
    for n in (100, 2 * _LOADTXT_MIN):
        vals = np.random.default_rng(2).lognormal(0.0, 2.5, n)
        write_indicators(tmp_path / "x.f64", vals)
        write_indicators(tmp_path / "x.txt", vals)
        binary, text = read_indicators(tmp_path / "x.f64"), read_indicators(tmp_path / "x.txt")
        assert binary.values.flags.owndata is False
        base = binary.values.base
        while isinstance(base, np.ndarray):
            base = base.base
        assert type(base) is bytes
        assert binary.values.tobytes() == text.values.tobytes() == vals.tobytes()
        parsed = io._read_text(tmp_path / "x.txt")
        assert parsed.flags.writeable is False
        assert np.shares_memory(IndicatorVector(parsed).values, parsed)


def test_text_parse_error_reports_line(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("1.0\nnot-a-number\n2.0\n")
    with pytest.raises(ParseError, match=":2:"):
        read_indicators(p)


def test_blank_line_rejected(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("1.0\n\n2.0\n")
    with pytest.raises(ParseError, match=":2:"):
        read_indicators(p)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("")
    with pytest.raises(ParseError):
        read_indicators(p)


def test_unsupported_extension(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.0\n")
    with pytest.raises(ParseError):
        read_indicators(p)


def test_binary_truncated(tmp_path):
    p = tmp_path / "x.f64"
    p.write_bytes(b"\x00" * 12)
    with pytest.raises(ParseError):
        read_indicators(p)


def test_negative_value_is_domain_error(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("1.0\n-2.0\n")
    with pytest.raises(InvalidIndicatorsError):
        read_indicators(p)


def test_marked_indices_written_sorted(tmp_path):
    p = tmp_path / "m.txt"
    write_marked_indices(p, [3, 0, 7])
    assert p.read_text() == "0\n3\n7\n"


def test_marked_indices_from_array_and_empty_set(tmp_path):
    p = tmp_path / "m.txt"
    write_marked_indices(p, np.array([12, 3, 100], dtype=np.int64))
    assert p.read_bytes() == b"3\n12\n100\n"
    write_marked_indices(p, np.array([], dtype=np.int64))
    assert p.read_bytes() == b""


def test_text_parse_error_names_first_bad_line(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("1.0\n 2.5 \n3.0\n   \nx\n")
    with pytest.raises(ParseError, match=r":4: blank line"):
        read_indicators(p)
    p.write_text("1.0\n2.0\n1e5x\n")
    with pytest.raises(ParseError, match=r":3: not a float: '1e5x'"):
        read_indicators(p)
    p.write_text("1.0\n 2.5 \n")
    assert read_indicators(p).values.tolist() == [1.0, 2.5]


def test_underscores_between_digits_read_as_float_does(tmp_path):
    # the format is float()'s, on both sides of the loadtxt cutoff
    p = tmp_path / "x.txt"
    for n in (3, _LOADTXT_MIN + 1):
        p.write_text("2.5\n" * (n - 1) + "1_0\n")
        values = read_indicators(p).values
        assert values.size == n and values[-1] == 10.0


def test_separator_bytes_that_float_keeps_are_parse_errors(tmp_path):
    # str.strip() removes "\x1f" but float() does not, and numpy strips it too
    p = tmp_path / "x.txt"
    for n in (3, _LOADTXT_MIN + 1):
        p.write_text("2.5\n" * (n - 1) + "1\x1f\n")
        with pytest.raises(ParseError, match=rf":{n}: not a float: '1\\x1f'"):
            read_indicators(p)


@pytest.mark.filterwarnings("error")
def test_many_blank_lines_raise_the_blank_line_error(tmp_path):
    # numpy warns of a file without values; no warning leaves the reader
    p = tmp_path / "x.txt"
    p.write_text("\n" * _LOADTXT_MIN)
    with pytest.raises(ParseError, match=":1: blank line"):
        read_indicators(p)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("n", [_LOADTXT_MIN - 1, _LOADTXT_MIN])
def test_each_side_of_the_loadtxt_cutoff(tmp_path, monkeypatch, n, end):
    # files of at least _LOADTXT_MIN lines go to np.loadtxt, shorter ones are parsed by line
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    vals = np.random.default_rng(4).random(n)
    text = end.join(map(repr, vals.tolist()))
    p = tmp_path / "x.txt"
    for data in (text + end, text):
        p.write_text(data, newline="")
        assert read_indicators(p).values.tobytes() == vals.tobytes()
    assert len(calls) == 2 * (n >= _LOADTXT_MIN)
    # a line that numpy skips or splits sends the file back to the line parse
    for lines, message in (([*vals.tolist(), "", 1.0], f":{n + 1}: blank line"),
                           ([*vals.tolist(), "1 2", 1.0], f":{n + 1}: not a float: '1 2'"),
                           (["1 2"] * n, ":1: not a float: '1 2'")):
        p.write_text(end.join(map(str, lines)) + end, newline="")
        with pytest.raises(ParseError, match=message):
            read_indicators(p)


def reference_read(p) -> np.ndarray:
    """One float() per line of str.splitlines(), and the scan that names the first bad line."""
    lines = p.read_bytes().decode("utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            raise ParseError(f"{p}:{lineno}: blank line")
        for text in (stripped, line):
            try:
                float(text)
            except ValueError:
                raise ParseError(f"{p}:{lineno}: not a float: {text!r}") from None
    return np.array([float(line) for line in lines], dtype=np.float64)


def outcome(read, p):
    try:
        return read(p).tobytes()
    except ParseError as exc:
        return str(exc)


SOUP_BASE = [f"{v!r}\n" for v in np.random.default_rng(5).lognormal(0.0, 2.5, _LOADTXT_MIN + 8).tolist()]
SOUP_LINES = [
    "nan", "inf", "-inf", "1e400", "-0.0", " 3.5 ", "\t4", "1 2", "1_0", "1__0",
    "\u0663", "\ufeff1", "1\x00", "1\x002", "1\xa0", "\u3000 2", "1\x1f", "x", "", "  ",
]
SOUP_ENDS = ["\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028"]


@pytest.mark.filterwarnings("error")
@given(
    lines=st.sampled_from([_LOADTXT_MIN - 4, _LOADTXT_MIN + 4]),
    soup=st.lists(
        st.tuples(st.sampled_from(SOUP_LINES), st.sampled_from(SOUP_ENDS), st.integers(0, 10**4)),
        max_size=4,
    ),
    unterminated=st.booleans(),
)
@settings(max_examples=300, deadline=None)
# files that numpy reads with one value per line where the line reference fails
@example(lines=_LOADTXT_MIN + 4, soup=[("1\x1f", "\n", 9)], unterminated=False)
@example(lines=_LOADTXT_MIN + 4, soup=[("nan", "\r", 9), ("", "\n", 9)], unterminated=False)
@example(lines=_LOADTXT_MIN + 4, soup=[("-0.0", "\f", 9), ("", "\n", 10)], unterminated=False)
@example(lines=_LOADTXT_MIN + 4, soup=[("-0.0", "\v", 9), ("", "\r\n", 10)], unterminated=True)
@example(lines=_LOADTXT_MIN + 4, soup=[("-0.0", "\x1c", 9), ("", "\n", 10)], unterminated=False)
def test_text_reader_matches_the_line_reference(tmp_path_factory, lines, soup, unterminated):
    # both sides of the loadtxt cutoff give the reference's doubles or its error message
    pieces = SOUP_BASE[:lines]
    for text, end, at in soup:
        pieces.insert(at % (len(pieces) + 1), text + end)
    data = "".join(pieces)
    if unterminated:
        data = data.removesuffix("\n")
    p = tmp_path_factory.getbasetemp() / "soup.txt"
    p.write_bytes(data.encode("utf-8"))
    assert outcome(io._read_text, p) == outcome(reference_read, p)


LINE_ENDS = {
    "lone CR inside": lambda i, n: "\r" if i == 9 else "\n",
    "CR before CRLF": lambda i, n: "\r\r\n" if i == 9 else "\n",
    "final lone CR": lambda i, n: "\r" if i == n - 1 else "\n",
    "CRLF and LF": lambda i, n: "\r\n" if i % 2 else "\n",
}


@pytest.mark.parametrize("lines", [_LOADTXT_MIN - 4, _LOADTXT_MIN + 4])
@pytest.mark.parametrize("ends", sorted(LINE_ENDS))
def test_line_ends_match_the_line_reference(tmp_path, lines, ends):
    # a lone CR before the last byte sends the file to the line parse; a
    # final one and any mix of CRLF and LF leave it to numpy, counted as
    # str.splitlines counts them
    end = LINE_ENDS[ends]
    data = "".join(line.rstrip("\n") + end(i, lines) for i, line in enumerate(SOUP_BASE[:lines]))
    p = tmp_path / "ends.txt"
    p.write_bytes(data.encode("ascii"))
    expected = None if ends in ("lone CR inside", "CR before CRLF") else len(data.splitlines())
    assert io._plain_line_count(p.read_bytes()) == expected
    assert outcome(io._read_text, p) == outcome(reference_read, p)


@pytest.mark.parametrize("indices", [[0.9, 3.7], np.array([0.0, 3.0]), np.ones(4, dtype=bool)])
def test_non_integer_indices_rejected(tmp_path, indices):
    p = tmp_path / "m.txt"
    with pytest.raises(MarkingError, match="integers"):
        write_marked_indices(p, indices)
    assert not p.exists()


class TestMarkedIndexBytes:
    """The index file holds exactly the bytes of ``"".join(f"{i}\\n" for i in sorted(idx))``."""

    def check(self, tmp_path, indices):
        p = tmp_path / "m.txt"
        write_marked_indices(p, indices)
        assert p.read_bytes() == reference_bytes(indices)

    @pytest.mark.parametrize("indices", [[], [0], np.array([], dtype=np.int32), np.array([0])])
    def test_empty_and_zero(self, tmp_path, indices):
        self.check(tmp_path, indices)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_each_side_of_a_digit_boundary(self, tmp_path, k):
        edge = 10**k
        self.check(tmp_path, np.array([edge - 1, edge], dtype=np.int64))
        self.check(tmp_path, [edge - 1])
        self.check(tmp_path, [edge])
        self.check(tmp_path, np.array([0, 7, edge - 2, edge - 1, edge, edge + 1, 3 * edge]))

    def test_every_boundary_at_once_and_the_int64_range(self, tmp_path):
        powers = [10**k for k in range(1, 19)]
        values = [0, 1] + powers + [p - 1 for p in powers] + [2**63 - 1]
        self.check(tmp_path, np.array(values, dtype=np.int64))

    @pytest.mark.parametrize("size", [_JOIN_MAX, _JOIN_MAX + 1])
    def test_each_side_of_the_join_cutoff(self, tmp_path, rng, size):
        # str.join writes sets of at most _JOIN_MAX indices, numpy larger ones
        for high in (10, 1000, 10**6, 10**12):
            values = rng.integers(0, high, size)
            self.check(tmp_path, values)
            self.check(tmp_path, np.sort(values))
            self.check(tmp_path, values.tolist())

    def test_unsorted_duplicates_lists_and_int32(self, tmp_path, rng):
        values = rng.integers(0, 10**6, 2000)
        self.check(tmp_path, values.tolist())
        self.check(tmp_path, values.astype(np.int32))
        self.check(tmp_path, np.concatenate((values, values[:500])))
        self.check(tmp_path, [5, 5, 5, 0, 10, 10, 9])

    def test_sets_of_every_strategy(self, tmp_path, rng):
        x = rng.random(10**5)
        for algorithm in ALGORITHM_NAMES:
            self.check(tmp_path, mark(x, 0.5, algorithm).outcome.marked)

    def test_negative_index_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        for indices in ([3, -1, 7], np.array([-5], dtype=np.int64)):
            with pytest.raises(MarkingError, match="negative"):
                write_marked_indices(p, indices)
        assert not p.exists()
