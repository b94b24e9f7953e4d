"""Indicator file formats."""

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dmark import IndicatorVector, InvalidIndicatorsError, MarkingError, ParseError, mark
from dmark import io
from dmark.io import (
    _JOIN_MAX,
    _VECTOR_MIN,
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
    # on both sides of the vector reader's cutoff
    for n in (100, 2 * _VECTOR_MIN):
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


def test_unreadable_binary_file(tmp_path):
    p = tmp_path / "missing.f64"
    with pytest.raises(ParseError) as info:
        read_indicators(p)
    assert str(info.value) == f"{p}: [Errno 2] No such file or directory: '{p}'"


def test_write_unsupported_extension(tmp_path):
    p = tmp_path / "x.csv"
    with pytest.raises(ParseError) as info:
        write_indicators(p, np.array([1.0]))
    assert str(info.value) == f"{p}: unsupported extension '.csv' (expected .txt or .f64)"
    assert not p.exists()


@pytest.mark.parametrize(
    "values",
    [
        [[1.0, 2.0]],
        [10**400],
        ["a"],
        {1: 2},
        np.array([1 + 1j, 2]),
        np.array([3, 5], dtype="timedelta64[ms]"),
        [np.datetime64("2020-01-01"), np.datetime64("2020-01-02")],
    ],
    ids=["2-D", "overflow", "string", "dict", "complex", "timedelta", "datetime-list"],
)
@pytest.mark.parametrize("suffix", [".txt", ".f64"])
def test_write_rejects_what_is_not_a_real_vector(tmp_path, values, suffix):
    p = tmp_path / f"x{suffix}"
    with pytest.raises(InvalidIndicatorsError):
        write_indicators(p, values)
    assert not p.exists()


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
    # the format is float()'s, on both sides of the vector reader's cutoff
    p = tmp_path / "x.txt"
    for n in (3, _VECTOR_MIN + 1):
        p.write_text("2.5\n" * (n - 1) + "1_0\n")
        values = read_indicators(p).values
        assert values.size == n and values[-1] == 10.0


def test_separator_bytes_that_float_keeps_are_parse_errors(tmp_path):
    # str.strip() removes "\x1f" but float() does not
    p = tmp_path / "x.txt"
    for n in (3, _VECTOR_MIN + 1):
        p.write_text("2.5\n" * (n - 1) + "1\x1f\n")
        with pytest.raises(ParseError, match=rf":{n}: not a float: '1\\x1f'"):
            read_indicators(p)


@pytest.mark.filterwarnings("error")
def test_many_blank_lines_raise_the_blank_line_error(tmp_path):
    # no warning leaves the reader
    p = tmp_path / "x.txt"
    p.write_text("\n" * _VECTOR_MIN)
    with pytest.raises(ParseError, match=":1: blank line"):
        read_indicators(p)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("n", [_VECTOR_MIN - 1, _VECTOR_MIN])
def test_each_side_of_the_vector_cutoff(tmp_path, monkeypatch, n, end):
    # files of at least _VECTOR_MIN lines go to the vector reader's kernel,
    # shorter ones are parsed by line
    calls = []
    chunk = io._decimal_chunk
    monkeypatch.setattr(io, "_decimal_chunk", lambda *a: calls.append(a) or chunk(*a))
    vals = np.random.default_rng(4).random(n)
    text = end.join(map(repr, vals.tolist()))
    p = tmp_path / "x.txt"
    for data in (text + end, text):
        p.write_text(data, newline="")
        assert read_indicators(p).values.tobytes() == vals.tobytes()
    assert len(calls) == 2 * (n >= _VECTOR_MIN)
    # a line that float() rejects sends the file back to the line parse
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


SOUP_BASE = [f"{v!r}\n" for v in np.random.default_rng(5).lognormal(0.0, 2.5, _VECTOR_MIN + 8).tolist()]
# lines that the vector reader's kernel certifies
PLAIN = [f"{v:.9f}\n" for v in np.random.default_rng(9).random(4 * _VECTOR_MIN).tolist()]
SOUP_LINES = [
    "nan", "inf", "-inf", "1e400", "-0.0", " 3.5 ", "\t4", "1 2", "1_0", "1__0",
    "\u0663", "\ufeff1", "1\x00", "1\x002", "1\xa0", "\u3000 2", "1\x1f", "x", "", "  ",
]
SOUP_ENDS = ["\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028"]


@pytest.mark.filterwarnings("error")
@given(
    lines=st.sampled_from([_VECTOR_MIN - 4, _VECTOR_MIN + 4]),
    soup=st.lists(
        st.tuples(st.sampled_from(SOUP_LINES), st.sampled_from(SOUP_ENDS), st.integers(0, 10**4)),
        max_size=4,
    ),
    unterminated=st.booleans(),
)
@settings(max_examples=300, deadline=None)
# files whose line breaks or separators str.splitlines and float() read
# differently from an LF scan
@example(lines=_VECTOR_MIN + 4, soup=[("1\x1f", "\n", 9)], unterminated=False)
@example(lines=_VECTOR_MIN + 4, soup=[("nan", "\r", 9), ("", "\n", 9)], unterminated=False)
@example(lines=_VECTOR_MIN + 4, soup=[("-0.0", "\f", 9), ("", "\n", 10)], unterminated=False)
@example(lines=_VECTOR_MIN + 4, soup=[("-0.0", "\v", 9), ("", "\r\n", 10)], unterminated=True)
@example(lines=_VECTOR_MIN + 4, soup=[("-0.0", "\x1c", 9), ("", "\n", 10)], unterminated=False)
def test_text_reader_matches_the_line_reference(tmp_path_factory, lines, soup, unterminated):
    # both sides of the vector reader's cutoff give the reference's doubles or its error message
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


@pytest.mark.parametrize("lines", [_VECTOR_MIN - 4, _VECTOR_MIN + 4])
@pytest.mark.parametrize("ends", sorted(LINE_ENDS))
def test_line_ends_match_the_line_reference(tmp_path, lines, ends):
    # a lone CR before the last byte sends the file to the line parse; a
    # final one and any mix of CRLF and LF leave it to the vector reader,
    # split as str.splitlines splits them
    end = LINE_ENDS[ends]
    data = "".join(line.rstrip("\n") + end(i, lines) for i, line in enumerate(PLAIN[:lines]))
    p = tmp_path / "ends.txt"
    p.write_bytes(data.encode("ascii"))
    line_parse = lines < _VECTOR_MIN or ends in ("lone CR inside", "CR before CRLF")
    assert (io._read_text_vector(p.read_bytes()) is None) == line_parse
    assert outcome(io._read_text, p) == outcome(reference_read, p)


# The vector reader's kernel: every double it certifies is float()'s, bit
# for bit.

# lines the kernel certifies
CERTIFIED = [
    "0", "5", "5.", ".5", "00.00", "0.5", "7.25", "1.5e-05", "1E-02", "15e-01", "2.5e+01", "1e-00",
    "9007199254740992", "0.0000000000000000000005", "123456789012345.5",
    # blanks and tabs that float() strips
    " 3.5", "\t4", "3.5 ", "  6.25e-03\t",
    # more than 2**53 or 10**22, up to 19 digits and 122 places
    "1844674407370955161", "9999999999999999999", "1844674407370955.161", "9999999999999999.999",
    "0.12345678901234567", "1.2345678901234567e-05",
    ".00000000000000000000005", "1e-23", "1e-26", "4.9e-24", "1e-27", "1.2345678901234567e-40",
    "7.3e-99", ".0000000000000001e-99",
    # just below a power of two, where a double of w rounds up to it
    "1152921504606846.975", "9223372036854775807", "9.223372036854775807e-05",
    # at a power of two, where the units of the last place halve
    "1.0000000000000002", "0.25", "0.49999999999999994", "1",
]
# lines left to float(): not the grammar, or outside the exact bounds
LEFT_TO_FLOAT = [
    "", ".", "..", "1.2.3", "0..00000000000000", "0100.00.00010000000", "+1", "-1", "1 2", " ",
    "1_0", "1e", "1e+", "e5", ".e5", "1e5e3", "1e.5", "1.5E", "nan", "inf", "0x10", "1\t2",
    # exponents other than a sign and two digits, or past the digits after the point
    "1e-5", "1e-005", "1e5", "1e400", "1e+2", "2.5e2", "1e+16", "2.5e+02",
    "1e-0x", "1e-.5", "2e+ 1", "1.5e-0:",
    # 20 digits, 2**64 - 1 and 2**64; more than 24 bytes
    "10000000000000000000", "18446744073709551615", "18446744073709551616",
    "0.000000000000000000000005", "0.0000000000000000000001e-99",
    # 2**53 + 1, an exact midpoint between two doubles
    "9007199254740993",
    # a mantissa longer than 24 bytes
    "3101.1751469749995067000000",
]


def vector_read(monkeypatch, lines, prefix=PLAIN[:_VECTOR_MIN]):
    """The vector reader's doubles (``None`` if it hands the file on) for
    ``lines`` after ``prefix``, and which of the lines its kernel certified."""
    certified = []
    chunk = io._decimal_chunk

    def spy(*args):
        values, ok = chunk(*args)
        certified.append(ok)
        return values, ok

    monkeypatch.setattr(io, "_decimal_chunk", spy)
    raw = "".join([*prefix, *(f"{line}\n" for line in lines)]).encode("ascii")
    values = io._read_text_vector(raw)
    monkeypatch.setattr(io, "_decimal_chunk", chunk)
    n = len(lines)
    return (None if values is None else values[-n:]), np.concatenate(certified)[-n:]


def as_floats(lines) -> bytes:
    return np.array([float(line) for line in lines], dtype=np.float64).tobytes()


def test_kernel_certifies_its_grammar_only(monkeypatch):
    values, ok = vector_read(monkeypatch, CERTIFIED)
    assert ok.all()
    assert values.tobytes() == as_floats(CERTIFIED)
    assert not vector_read(monkeypatch, LEFT_TO_FLOAT)[1].any()


@pytest.mark.parametrize("chunk", [64, 1000, io._CHUNK])
def test_lines_on_both_sides_of_a_chunk_boundary(monkeypatch, chunk):
    # the special lines straddle the first chunk boundary after the prefix
    special = CERTIFIED + ["9007199254740993", "1e400", "1e+2"]
    boundary = -(-(_VECTOR_MIN + len(special)) // chunk) * chunk
    before = boundary - _VECTOR_MIN - len(special) // 2
    fill = [line.rstrip("\n") for line in PLAIN[: before + 8]]
    lines = fill[:before] + special + fill[before:]
    monkeypatch.setattr(io, "_CHUNK", chunk)
    values, ok = vector_read(monkeypatch, lines)
    assert values.tobytes() == as_floats(lines)
    assert ok[: before + len(CERTIFIED)].all()
    assert np.count_nonzero(~ok) == 3


@st.composite
def decimal_lines(draw) -> str:
    """A line that float() reads: a repr, or a decimal of 15 to 20
    significant digits on or next to the midpoint between two adjacent
    doubles, in positional or exponent form."""
    if draw(st.booleans()):
        return repr(draw(st.floats(min_value=0.0, max_value=1e30)))
    # a double in [2**-20, 2**63]
    bits = draw(st.integers(0x3EB0000000000000, 0x43E0000000000000))
    low = float(np.uint64(bits).view(np.float64))
    mid = (Fraction(low) + Fraction(float(np.nextafter(low, np.inf)))) / 2
    with localcontext() as ctx:
        ctx.prec = 400
        exact = Decimal(mid.numerator) / Decimal(mid.denominator)
        ctx.prec = draw(st.integers(15, 20))
        ctx.rounding = draw(st.sampled_from([ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN]))
        near = +exact
    value = exact if len(exact.as_tuple().digits) <= 20 and draw(st.booleans()) else near
    form = draw(st.sampled_from(["f", "e", "E"]))
    text = format(value, form)
    if form == "f":
        return text
    # a sign and at least two digits in the exponent, as printf writes it
    mantissa, _, power = text.partition(form)
    return f"{mantissa}{form}{int(power):+03d}"


@given(lines=st.lists(decimal_lines(), min_size=1, max_size=30))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@example(lines=["9007199254740993", "9007199254740992", "9007199254740994"])
@example(lines=["3101.1751469749995067", "18446744073709551616", "18446744073709551615"])
# just below a power of two, where the quotient may round up into the next binade
@example(lines=["0.49999999999999997", "0.9999999999999999", "0.12345678901234567"])
@example(lines=["9.5367431640624984e-07", "1.90734863281249968e-06"])
def test_vector_reader_is_float_bitwise(monkeypatch, lines):
    values, _ = vector_read(monkeypatch, lines)
    assert values.tobytes() == as_floats(lines)


@st.composite
def quotients(draw):
    """``(w, k)``: ``w < 10**19`` and ``k <= 122`` at random, or ``w / 10**k``
    within a few units of ``w``'s last digit of a midpoint between two
    adjacent doubles, or of a point below a power of two, where the units of
    the last place halve."""
    k = draw(st.integers(0, io._K_MAX))
    if draw(st.booleans()):
        return draw(st.integers(0, 10**19 - 1)), k
    # a double with w of 15 to 19 digits
    low = draw(st.floats(min_value=10.0 ** (14 - k), max_value=10.0 ** (19 - k)))
    mid = (Fraction(low) + Fraction(float(np.nextafter(low, np.inf)))) / 2
    if draw(st.booleans()):
        power = Fraction(2) ** int(np.frexp(low)[1])
        mid = power - draw(st.sampled_from([1, 2, 3, 4, 5])) * power / 2**54
    w = round(mid * 10**k) + draw(st.integers(-2, 2))
    assume(0 <= w < 10**19)
    return w, k


@pytest.mark.parametrize("checked", [False, True])
@given(pairs=st.lists(quotients(), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
@example(pairs=[(9007199254740993, 0), (5, 1), (0, 26), (9999999999999999999, 0)])
# a quotient one unit below a power of two, where the correction leaves the binade
@example(pairs=[(95367431640624984, 23), (190734863281249968, 23)])
# w just below a power of two, whose double rounds up to it
@example(pairs=[(2**60 - 1, 3), (2**63 - 1, 23), (2**62 - 1, 40), (2**54 - 1, 122)])
def test_rounding_is_float_bitwise(checked, pairs):
    # a last pair past 2**53 sends the whole batch through the checked
    # rounding; without it, batches of exact operands take one division
    if not checked:
        pairs = [(w, k) for w, k in pairs if w <= 2**53 and k <= 22]
    pairs.append((2**60, 3) if checked else (1, 0))
    w, k = np.array([w for w, _ in pairs], dtype=np.uint64), np.array([k for _, k in pairs])
    values, ok = io._divide(w, k, np.ones(w.size, dtype=bool))
    want = np.array([int(a) / 10 ** int(b) for a, b in zip(w.tolist(), k.tolist())])
    assert values[ok].tobytes() == want[ok].tobytes()
    # a quotient next to a midpoint may be left to float(), exact operands not
    assert ok[-1] and (checked or ok.all())


def test_rounding_certifies_almost_every_quotient():
    rng = np.random.default_rng(11)
    w = rng.integers(0, 10**19, 10**5, dtype=np.uint64)
    k = rng.integers(0, io._K_MAX + 1, w.size)
    values, ok = io._divide(w, k, np.ones(w.size, dtype=bool))
    # about one in 2**11 lies within a unit of the high word of a midpoint
    assert np.count_nonzero(~ok) <= 200
    want = np.array([a / 10**b for a, b in zip(w.tolist(), k.tolist())])
    assert values[ok].tobytes() == want[ok].tobytes()


@pytest.mark.parametrize("fmt", ["{:.6e}", "{:>14.6E}", "{:.18e}", "{:>12.4f}"])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_fixed_width_lines_read_through_a_strided_window(tmp_path, monkeypatch, fmt, end):
    # evenly spaced line ends let the kernel view its words instead of gathering
    # them, in every chunk but the first, whose first window starts before the file
    strided = []
    view = io.as_strided
    monkeypatch.setattr(io, "as_strided", lambda *a, **kw: strided.append(1) or view(*a, **kw))
    x = np.random.default_rng(12).lognormal(0.0, 2.5, 2 * io._CHUNK)
    p = tmp_path / "fixed.txt"
    p.write_bytes("".join(fmt.format(v) + end for v in x.tolist()).encode("ascii"))
    assert io._read_text(p).tobytes() == reference_read(p).tobytes()
    assert strided


def test_unevenly_spaced_lines_are_gathered(tmp_path):
    # a 3-byte and a 13-byte line among 8-byte ones keep the first and last
    # line ends of their chunk where even spacing would put them; a strided
    # window would read the first from the second's bytes
    x = np.random.default_rng(13).uniform(1.0, 9.0, 2 * io._CHUNK)
    lines = [f"{v:.6f}" for v in x.tolist()]
    i = io._CHUNK + 100
    lines[i], lines[i + 1] = "0.5", "1.23456789012"
    p = tmp_path / "uneven.txt"
    p.write_text("".join(f"{line}\n" for line in lines))
    assert io._read_text(p).tobytes() == reference_read(p).tobytes()


@pytest.mark.parametrize("padded", [1, 8])
def test_files_mostly_left_to_float_take_the_line_parse(tmp_path, padded):
    # float() costs more per line in the vector reader than in the line
    # parse, which takes a file whose first chunk the kernel mostly rejects
    lines = [line.rstrip("\n") for line in PLAIN[: 2 * _VECTOR_MIN]]
    lines[::padded] = [f"+{line}" for line in lines[::padded]]
    p = tmp_path / "signed.txt"
    p.write_text("".join(f"{line}\n" for line in lines))
    assert (io._read_text_vector(p.read_bytes()) is None) == (padded == 1)
    assert outcome(io._read_text, p) == outcome(reference_read, p)


@pytest.mark.parametrize("family", ["uniform", "lognormal", "tiny"])
def test_kernel_certifies_almost_every_repr_line(monkeypatch, family):
    rng = np.random.default_rng(7)
    x = {
        "uniform": lambda: rng.random(10**4),
        "lognormal": lambda: rng.lognormal(0.0, 2.5, 10**4),
        # 17 digits and exponents of -13 to -16: 29 to 32 places
        "tiny": lambda: rng.lognormal(0.0, 1.0, 10**4) * 1e-14,
    }[family]()
    lines = [repr(v) for v in x.tolist()]
    values, ok = vector_read(monkeypatch, lines)
    assert values.tobytes() == x.tobytes()
    assert np.count_nonzero(~ok) <= 20


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

    @pytest.mark.parametrize("size", [io._SLICE - 1, io._SLICE, io._SLICE + 1])
    def test_each_side_of_the_slice_size(self, tmp_path, size):
        # a block of exactly one slice, and one row short of or past it, after
        # a shorter block, in 32-bit (6 digits) and 64-bit (11 digits) words
        for first in (10**5, 10**10):
            self.check(tmp_path, np.arange(first - 3, first + size, dtype=np.int64))

    def test_every_digit_count_over_several_slices(self, tmp_path):
        # 2 * _SLICE + 1 entries from 10**(d - 1) to 10**d - 1 for each d, the
        # 19-digit block ending at 2**63 - 1; up to 4 digits they repeat
        n = 2 * io._SLICE + 1
        values = []
        for d in range(1, 20):
            lo, hi = 10 ** (d - 1) if d > 1 else 0, 10**d - 1 if d < 19 else 2**63 - 1
            values += [lo + k * (hi - lo) // (n - 1) for k in range(n)]
        self.check(tmp_path, np.array(values, dtype=np.int64))

    @given(
        near=st.lists(
            st.tuples(st.integers(1, 19), st.integers(-40, 40)), min_size=_JOIN_MAX + 1, max_size=400
        ),
        size=st.sampled_from([1, 2, 3, 7, 64]),
    )
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_entries_near_digit_boundaries(self, tmp_path, monkeypatch, near, size):
        # slices of a few rows, so that every block spans several of them
        monkeypatch.setattr(io, "_SLICE", size)
        values = np.sort(
            np.array([min(max(10**k + step, 0), 2**63 - 1) for k, step in near], dtype=np.int64)
        )
        self.check(tmp_path, values)

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

    def test_indices_beyond_int64_named(self, tmp_path):
        # the cast to int64 would wrap 2**63 to -2**63 and report that as negative
        p = tmp_path / "m.txt"
        for indices in (np.array([5, 2**63], dtype=np.uint64), [5, 2**63]):
            with pytest.raises(MarkingError, match=f"marked index {2**63} is outside the int64 range"):
                write_marked_indices(p, indices)
        assert not p.exists()
        self.check(tmp_path, np.array([2**63 - 1, 5], dtype=np.uint64))
