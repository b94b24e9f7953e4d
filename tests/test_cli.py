"""Command-line interface: marking files, benchmarking, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from dmark import mark
from dmark.bench import DEFAULT_ALGORITHMS
from dmark.cli import main
from dmark.io import write_indicators
from dmark.markers import ALGORITHM_NAMES


@pytest.fixture
def indicator_file(tmp_path):
    p = tmp_path / "ind.txt"
    p.write_text("4\n1\n2\n3\n")
    return p


class TestMark:
    def test_quickmark_file(self, indicator_file, tmp_path, capsys):
        out = tmp_path / "marked.txt"
        code = main(
            [
                "mark",
                "--input",
                str(indicator_file),
                "--theta",
                "0.5",
                "--algorithm",
                "quickmark",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == "0\n3\n"
        report = capsys.readouterr().out
        assert "cardinality=2" in report
        assert "x_star=3.0" in report
        assert "goal_value=5.0" in report

    @pytest.mark.parametrize("algorithm", ["sort", "decrement", "binning", "xstar"])
    def test_all_algorithms(self, indicator_file, tmp_path, algorithm):
        out = tmp_path / "m.txt"
        code = main(
            [
                "mark",
                "--input",
                str(indicator_file),
                "--theta",
                "0.5",
                "--algorithm",
                algorithm,
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == "0\n3\n"

    def test_binary_input(self, tmp_path):
        src = tmp_path / "ind.f64"
        write_indicators(src, np.array([4.0, 1.0, 2.0, 3.0]))
        out = tmp_path / "m.txt"
        code = main(
            ["mark", "--input", str(src), "--theta", "0.5", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text() == "0\n3\n"

    def test_theta_one_marks_positive_support(self, tmp_path):
        src = tmp_path / "ind.txt"
        src.write_text("1\n0\n2\n")
        out = tmp_path / "m.txt"
        code = main(
            ["mark", "--input", str(src), "--theta", "1.0", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text() == "0\n2\n"

    def test_empty_file_exit_2(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        code = main(
            ["mark", "--input", str(src), "--theta", "0.5", "--output", str(tmp_path / "m")]
        )
        assert code == 2

    def test_negative_entry_exit_2(self, tmp_path):
        src = tmp_path / "neg.txt"
        src.write_text("1\n-2\n")
        code = main(
            ["mark", "--input", str(src), "--theta", "0.5", "--output", str(tmp_path / "m")]
        )
        assert code == 2

    def test_bad_theta_exit_2(self, indicator_file, tmp_path):
        code = main(
            [
                "mark",
                "--input",
                str(indicator_file),
                "--theta",
                "1.5",
                "--output",
                str(tmp_path / "m"),
            ]
        )
        assert code == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("1\nx\n")
        code = main(
            ["mark", "--input", str(src), "--theta", "0.5", "--output", str(tmp_path / "m")]
        )
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm,lines",
        [
            ("quickmark", ["cardinality=2", "achieved_sum=1.0", "x_star=0.3"]),
            ("sort", ["cardinality=2", "achieved_sum=1.0"]),
            ("binning", ["cardinality=2", "achieved_sum=0.8999999999999999"]),
            ("decrement", ["cardinality=3", "achieved_sum=1.0"]),
        ],
    )
    def test_report_lines(self, tmp_path, capsys, algorithm, lines):
        src = tmp_path / "ind.txt"
        src.write_text("0.1\n0.2\n0.3\n0.7\n0.05\n")
        out = tmp_path / "m.txt"
        code = main(
            ["mark", "--input", str(src), "--theta", "0.65", "--algorithm", algorithm,
             "--output", str(out)]
        )
        assert code == 0
        expected = [
            f"algorithm={algorithm}",
            "n=5",
            "theta=0.65",
            "goal_value=0.8775000000000001",
            *lines,
            f"output={out}",
        ]
        assert capsys.readouterr().out.splitlines() == expected

    def test_goal_value_is_theta_times_numpy_sum(self, tmp_path, capsys, rng):
        x = rng.lognormal(0.0, 2.5, 10**4)
        src = tmp_path / "ind.f64"
        write_indicators(src, x)
        for algorithm in ALGORITHM_NAMES:
            code = main(
                ["mark", "--input", str(src), "--theta", "0.37", "--algorithm", algorithm,
                 "--output", str(tmp_path / "m.txt")]
            )
            assert code == 0
            report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
            assert float(report["goal_value"]) == 0.37 * np.sum(x)

    def test_large_binary_file_every_algorithm(self, tmp_path, rng):
        x = rng.random(10**5)
        src = tmp_path / "ind.f64"
        write_indicators(src, x)
        out = tmp_path / "m.txt"
        for algorithm in ALGORITHM_NAMES:
            code = main(
                ["mark", "--input", str(src), "--theta", "0.5", "--algorithm", algorithm,
                 "--output", str(out)]
            )
            assert code == 0
            expected = np.sort(mark(x, 0.5, algorithm).outcome.marked)
            assert np.array_equal(np.loadtxt(out, dtype=np.int64), expected)


class TestBench:
    def test_csv_to_stdout(self, capsys):
        code = main(
            [
                "bench",
                "--algorithm",
                "quickmark",
                "--n",
                "500",
                "--theta",
                "0.5",
                "--runs",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "algorithm,N,theta,stat,seconds,comparisons"
        assert len(lines) == 4

    def test_output_file_and_instrument(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--algorithm",
                "sort",
                "--n",
                "200",
                "--theta",
                "0.25",
                "--runs",
                "2",
                "--instrument",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        comparisons = int(lines[1].split(",")[5])
        assert comparisons > 0

    def test_per_element_view(self, capsys):
        code = main(
            [
                "bench",
                "--algorithm",
                "xstar",
                "--n",
                "300",
                "--theta",
                "0.5",
                "--runs",
                "1",
                "--per-element",
            ]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "algorithm,N,theta,stat,ns_per_element"

    def test_table_format(self, capsys):
        code = main(
            ["bench", "--n", "200", "--theta", "0.5", "--runs", "1", "--format", "table"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("algorithm")

    def test_size_cap_exit_2(self, capsys):
        code = main(["bench", "--n", "100000000", "--theta", "0.5", "--runs", "1"])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_bad_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--format", "yaml"])
        assert exc.value.code == 2


def test_repeated_calls_share_no_parser_state(indicator_file, tmp_path, capsys):
    grid = ["--n", "200", "--theta", "0.5", "--runs", "1"]

    def algorithms_in_csv():
        rows = capsys.readouterr().out.splitlines()[1:]
        return {row.split(",")[0] for row in rows}

    assert main(["bench", "--algorithm", "sort", "--algorithm", "xstar", *grid]) == 0
    assert algorithms_in_csv() == {"sort", "xstar"}
    assert main(["bench", *grid]) == 0
    assert algorithms_in_csv() == set(DEFAULT_ALGORITHMS)
    out = tmp_path / "m.txt"
    code = main(["mark", "--input", str(indicator_file), "--theta", "0.5", "--output", str(out)])
    assert code == 0
    assert out.read_text() == "0\n3\n"
    report = capsys.readouterr().out
    assert "algorithm=quickmark" in report
    assert "cardinality=2" in report


def test_mark_in_a_fresh_process(tmp_path):
    src = tmp_path / "x.f64"
    write_indicators(src, np.array([4.0, 1.0, 2.0, 3.0]))
    out = tmp_path / "m.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "dmark.cli", "mark", "--input", str(src), "--output", str(out),
         "--theta", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == b"0\n3\n"
    assert "cardinality=2" in proc.stdout


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dmark.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dmark" in proc.stdout
