"""Exit codes and output of the command-line front end."""

import numpy as np
import pytest

from nullrank import checks, make_system
from nullrank.checks import check_nullrank, draw_frequencies
from nullrank.cli import main
from nullrank.dssfile import read_system, write_system

from conftest import random_system


@pytest.fixture
def zero_file(tmp_path, rng):
    sys = random_system(rng, n=3, m=2, p=2)
    zero = make_system(sys.A, sys.E, sys.B, np.zeros((2, 3)), np.zeros((2, 2)))
    path = tmp_path / "zero.dss"
    write_system(zero, path)
    return str(path)


@pytest.fixture
def nonzero_file(tmp_path, rng):
    path = tmp_path / "plant.dss"
    write_system(random_system(rng, n=3, m=2, p=2), path)
    return str(path)


def test_check_zero_system_exits_zero(zero_file, capsys):
    code = main(["check", zero_file])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 5
    for k, line in enumerate(out, start=1):
        assert line.startswith(f"method={k} isnull=1 ")
        assert "elapsed=" in line


def test_check_nonzero_system_exits_one(nonzero_file, capsys):
    code = main(["check", nonzero_file])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert all(" isnull=0 " in line for line in out)


def test_check_method_subset_is_repeatable(zero_file, capsys):
    code = main(["check", zero_file, "--method", "4", "--method", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split()[0] for line in out] == ["method=4", "method=5"]


def test_check_unreadable_file_exits_two(tmp_path, capsys):
    code = main(["check", str(tmp_path / "missing.dss")])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read" in captured.err


def test_check_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.dss"
    path.write_text("not a realization\n")
    assert main(["check", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_rank_prints_an_integer(nonzero_file, zero_file, capsys):
    assert main(["rank", nonzero_file]) == 0
    first = capsys.readouterr().out.strip()
    assert first == "2"  # generic 2 x 2 response has full rank
    assert main(["rank", zero_file]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_rank_samples_the_points_of_method5(tmp_path, rng, capsys, monkeypatch):
    # rank 1 response; `rank` must sample where check's method 5 samples
    sys = random_system(rng, n=4, m=3, p=3)
    B = sys.B[:, :1] @ np.ones((1, 3))
    D = sys.D[:, :1] @ np.ones((1, 3))
    path = tmp_path / "rank1.dss"
    write_system(make_system(sys.A, sys.E, B, sys.C, D), path)
    draws = []

    def spy(seed, count=1):
        draws.append((seed, count))
        return draw_frequencies(seed, count)

    monkeypatch.setattr(checks, "draw_frequencies", spy)
    assert main(["rank", str(path), "--seed", "3", "--samples", "2"]) == 0
    assert capsys.readouterr().out == "1\n"
    check_nullrank(read_system(path), (5,), seed=3, sample_count=2)
    assert draws == [(3 * 8 + 5, 2), (3 * 8 + 5, 2)]


def test_rank_reports_a_failing_method5_and_exits_two(tmp_path, capsys):
    # Every matrix zero: the system pencil has rank 0, below the order 2.
    path = tmp_path / "blank.dss"
    write_system(make_system(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)),
                             np.zeros((1, 2)), np.zeros((1, 1))), path)
    assert main(["rank", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ReductionError: system pencil rank 0 is below the order 2" in captured.err


@pytest.mark.parametrize("command", [["check", "{file}"], ["rank", "{file}"]])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_usage_error(nonzero_file, capsys, command, seed):
    with pytest.raises(SystemExit) as info:
        main([arg.format(file=nonzero_file) for arg in command] + ["--seed", seed])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed" in captured.err


def test_rank_is_seed_deterministic(nonzero_file, capsys):
    main(["rank", nonzero_file, "--seed", "9"])
    a = capsys.readouterr().out
    main(["rank", nonzero_file, "--seed", "9"])
    assert capsys.readouterr().out == a


def test_bench_text_report_to_stdout(capsys):
    code = main(["bench", "--orders", "1", "--seeds", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["order", "actual", "cases"]
    assert "totals over 2 cases" in out


def test_bench_csv_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = main(["bench", "--orders", "1,2", "--seeds", "1", "--format", "csv",
                 "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "n,N,seed,m1,m2,m3,m4,m5,t1,t2,t3,t4,t5"
    assert len(lines) == 3


def test_bench_rejects_bad_order_list(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--orders", "1,x"])
    assert info.value.code == 2


@pytest.mark.parametrize("args", [
    ["check", "{file}", "--samples", "0"],
    ["rank", "{file}", "--samples", "0"],
    ["rank", "{file}", "--samples", "-3"],
    ["bench", "--seeds", "0"],
    ["bench", "--seeds", "-2"],
    ["bench", "--seeds", "two"],
])
def test_counts_below_one_are_usage_errors(nonzero_file, capsys, args):
    with pytest.raises(SystemExit) as info:
        main([arg.format(file=nonzero_file) for arg in args])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err or "--seeds" in captured.err


@pytest.mark.parametrize("command", [["check", "{file}"], ["rank", "{file}"], ["bench", "--orders", "1"]])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "small"])
def test_tol_that_is_not_a_finite_non_negative_number_is_a_usage_error(
    nonzero_file, capsys, command, tol
):
    with pytest.raises(SystemExit) as info:
        main([arg.format(file=nonzero_file) for arg in command] + ["--tol", tol])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err


def test_tol_zero_is_accepted(nonzero_file, capsys):
    assert main(["rank", nonzero_file, "--tol", "0"]) == 0
    assert int(capsys.readouterr().out) > 0


def test_cli_requires_a_command(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
