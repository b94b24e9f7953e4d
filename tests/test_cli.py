"""Command-line interface: marking files, exit codes."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmark
from dmark import cli, goal_value, mark
from dmark.cli import main
from dmark.io import _VECTOR_MIN, write_indicators
from dmark.markers import ALGORITHM_NAMES


def child_env() -> dict:
    """The environment of a child process that imports the package these tests import,
    however the test run found it (``PYTHONPATH`` or pytest's ``pythonpath``)."""
    src = str(Path(dmark.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_bad_nu_exit_2(self, indicator_file, tmp_path, capsys, algorithm):
        out = tmp_path / "m"
        args = ["--input", str(indicator_file), "--output", str(out), "--theta", "0.5"]
        code = main(["mark", *args, "--algorithm", algorithm, "--nu", "nan"])
        assert code == 2
        assert "nu must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_decrement_sweep_cap_exit_2(self, tmp_path):
        # a fresh process with a timeout, so that sweeps that do not end fail
        # the test instead of hanging it
        src, out = tmp_path / "a.txt", tmp_path / "o.txt"
        src.write_text("1.0\n2.0\n3.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dmark.cli", "mark", "--input", str(src), "--output", str(out),
             "--theta", "0.5", "--algorithm", "decrement", "--nu", "1e-300"],
            capture_output=True,
            text=True,
            timeout=30,
            env=child_env(),
        )
        assert proc.returncode == 2, proc.stderr
        assert "sweeps; choose a larger nu" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing/m.txt", "."])
    def test_unwritable_output_exit_2(self, indicator_file, tmp_path, capsys, target):
        # a missing directory, or a directory, as --output is reported as an
        # unreadable --input is: one line on stderr and exit code 2
        out = tmp_path / target
        code = main(
            ["mark", "--input", str(indicator_file), "--theta", "0.5", "--output", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"dmark: error: {out}: [Errno ")
        assert len(captured.err.splitlines()) == 1

    def test_full_disk_exit_3_without_partial_output(
        self, indicator_file, tmp_path, capsys, monkeypatch
    ):
        # a write that runs out of space is resource exhaustion, and the
        # partial index file is removed
        out = tmp_path / "m.txt"

        def write_part(path, indices):
            Path(path).write_bytes(b"0\n1\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "write_marked_indices", write_part)
        code = main(
            ["mark", "--input", str(indicator_file), "--theta", "0.5", "--output", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith(f"dmark: error: {out}: [Errno {errno.ENOSPC}]")
        assert not out.exists()

    def test_out_of_memory_exit_3(self, indicator_file, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "mark", exhausted)
        out = tmp_path / "m.txt"
        code = main(
            ["mark", "--input", str(indicator_file), "--theta", "0.5", "--output", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err == "dmark: error: out of memory\n"
        assert not out.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_dev_full_exit_3(self, indicator_file, capsys):
        code = main(
            ["mark", "--input", str(indicator_file), "--theta", "0.5", "--output", "/dev/full"]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("dmark: error: /dev/full: [Errno ")
        assert Path("/dev/full").exists()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        src = tmp_path / "missing.txt"
        code = main(
            ["mark", "--input", str(src), "--theta", "0.5", "--output", str(tmp_path / "m")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"dmark: error: {src}: [Errno ")

    def test_parse_error_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("1\nx\n")
        code = main(
            ["mark", "--input", str(src), "--theta", "0.5", "--output", str(tmp_path / "m")]
        )
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [3, _VECTOR_MIN + 1])
    def test_invalid_utf8_exit_2(self, tmp_path, capsys, n):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"1.0\n" * (n - 1) + b"\xff\n")
        code = main(
            ["mark", "--input", str(src), "--theta", "0.5", "--output", str(tmp_path / "m")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"dmark: error: {src}: not UTF-8")

    def test_text_above_the_vector_cutoff_marks_as_binary(self, tmp_path, rng):
        # the same values as .txt and .f64 give the same index bytes
        x = rng.lognormal(0.0, 2.5, 4 * _VECTOR_MIN)
        write_indicators(tmp_path / "ind.txt", x)
        write_indicators(tmp_path / "ind.f64", x)
        for algorithm in ALGORITHM_NAMES:
            written = []
            for src in ("ind.txt", "ind.f64"):
                out = tmp_path / f"m-{src}"
                code = main(
                    ["mark", "--input", str(tmp_path / src), "--theta", "0.6",
                     "--algorithm", algorithm, "--output", str(out)]
                )
                assert code == 0
                written.append(out.read_bytes())
            assert written[0] == written[1] != b""

    @pytest.mark.parametrize(
        "algorithm,lines",
        [
            ("quickmark", ["cardinality=2", "achieved_sum=1.0", "x_star=0.3"]),
            ("sort", ["cardinality=2", "achieved_sum=1.0", "x_star=0.3"]),
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

    def test_goal_value_is_finite_where_the_sum_overflows(self, tmp_path, capsys):
        # the goal the strategies cut against, though the sum passes the largest double
        src = tmp_path / "ind.txt"
        src.write_text("1e308\n1e308\n1e307\n")
        code = main(["mark", "--input", str(src), "--theta", "0.3", "--output", str(tmp_path / "m")])
        assert code == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        goal = float(report["goal_value"])
        assert np.isfinite(goal) and goal == pytest.approx(6.3e307)
        assert goal == goal_value([1e308, 1e308, 1e307], 0.3)
        assert report["cardinality"] == "1"

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


def test_removed_bench_command_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2


def test_repeated_calls_share_no_parser_state(indicator_file, tmp_path, capsys):
    out = tmp_path / "m.txt"
    args = ["mark", "--input", str(indicator_file), "--theta", "0.5", "--output", str(out)]
    assert main([*args, "--algorithm", "sort"]) == 0
    assert "algorithm=sort" in capsys.readouterr().out
    assert main(args) == 0
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
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == b"0\n3\n"
    assert "cardinality=2" in proc.stdout


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dmark.cli", "--version"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "dmark" in proc.stdout
