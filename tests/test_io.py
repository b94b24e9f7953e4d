"""Indicator file formats."""

import numpy as np
import pytest

from dmark import InvalidIndicatorsError, MarkingError, ParseError, mark
from dmark.io import read_indicators, write_indicators, write_marked_indices
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
