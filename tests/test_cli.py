import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import rfree.arith
from rfree import InvariantViolationError, zeta_value
from rfree.arith import format_fraction
from rfree.cli import (_frac_sci, main, parse_scan_csv, record_fields, records_to_csv,
                       records_to_json, CSV_COLUMNS)
from rfree.lattice import (SCAN_CHUNK, CountParams, count_fast, count_record, decimal_places,
                           scan_rows)
from rfree.omega import error_scan

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_with_oracle(capsys):
    code, out, _ = run_cli(["count", "--r", "2", "--k", "1", "--x", "10", "--oracle"], capsys)
    assert code == 0
    assert "V = 14" in out
    assert "oracle = 14" in out
    assert "agreement = true" in out


def test_count_r1_k2_x1(capsys):
    code, out, _ = run_cli(["count", "--r", "1", "--k", "2", "--x", "1"], capsys)
    assert code == 0
    assert "V = 8" in out


def test_count_at_large_r_takes_its_roots_quickly(capsys):
    # the x^(1/r) normalization roots x 10^(40 r); Newton from 2^ceil(bits/r)
    # took about 4 s at r = 3000
    start = time.perf_counter()
    code, out, _ = run_cli(["count", "--r", "3000", "--k", "1", "--x", "3"], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 0 and "normalized_error = 0.000000000000000000000000000004\n" in out


@pytest.mark.parametrize("argv", [
    "zeta --s 1000001",
    "count --r 1000000 --k 2 --x 1",
    "count --r 20000 --k 1 --x 3",
    "count --r 72728 --k 1 --x 3 --precision 0.1",
    "scan --r 20000 --k 1 --x-min 2 --x-max 3",
])
def test_inputs_past_the_zeta_and_root_bounds_exit_1_at_once(argv):
    # one past arith.ZETA_S_LIMIT or lattice.ROOT_DIGITS_LIMIT; zeta --s 10^6
    # took 3.4 s and count --r 72727 --k 1 --x 3 --precision 0.1 6.7 s, and the
    # work grows at least as s^2 and digits^1.6
    assert _refused_in_a_fresh_process(argv)[0] < 3


def _refused_in_a_fresh_process(argv: str) -> tuple[float, str]:
    # runs rfree ARGV in a fresh process, which must exit 1 with one error line
    # and nothing on stdout; returns its wall time and stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rfree.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    _assert_one_error_line(proc.stderr)
    return elapsed, proc.stderr


@pytest.mark.parametrize("argv", [
    "scan --r 2 --k 500000 --x-min 2 --x-max 2",  # still running after 130 s
    "count --r 2 --k 30000 --x 3",  # 10.6 s
    "count --r 1 --k 1000 --x 10000000",  # 6.8 s
    "scan --r 2 --k 300 --x-min 100000000000000 --x-max 100000000000000",  # 13.1 s as a count
    "jordan --n 720720 --r 1 --k 100000",  # 11.9 s
    "scan --r 2 --k 2000 --x-min 2 --x-max 1000001",  # 10^6 rows; 1,000 of them took 2.7 s
])
def test_counts_past_the_work_limit_exit_1_at_once(argv):
    # past arith.COUNT_WORK_LIMIT; the times are this tree's before the limit,
    # fresh processes on a 2-vCPU x86 VM
    assert _refused_in_a_fresh_process(argv)[0] < 3


@pytest.mark.parametrize("argv", [
    "jordan --n 2 --r 1 --k 1778222",  # --k 1778221 takes 4.8 s of CPU
    "jordan --n 963761198400 --r 1 --k 18664",  # 512 powers; --k 18663 takes 7.8 s
    "jordan --n 963761198400 --r 2 --k 43677",  # 8 powers; --k 43676 takes 6.4 s
])
def test_totients_past_the_work_limit_exit_1_at_once(argv):
    # the smallest totients past arith.TOTIENT_WORK_LIMIT; the times of the
    # largest accepted are medians of 3 fresh processes on a 2-vCPU x86 VM
    assert _refused_in_a_fresh_process(argv)[0] < 1


def test_totient_past_the_count_rule_prints_at_once(capsys, digit_cap_4300):
    # the counts' rule refused J_31442^1(2) = 2^31442 - 1, 9,466 digits
    code, out, err = run_cli(["jordan", "--n", "2", "--r", "1", "--k", "31442"], capsys)
    assert (code, err) == (0, "")
    sys.set_int_max_str_digits(0)
    assert out == f"J(r=1, k=31442, n=2) = {2**31442 - 1}\n"


@pytest.mark.parametrize("argv", [
    "count --r 1000000 --k 1 --x 3",
    "scan --r 1000000 --k 1 --x-min 2 --x-max 3",
])
def test_k1_roots_past_their_limit_exit_1_before_zeta(argv):
    # the root's digits are checked at x (x_max for a scan) before 1/zeta(10^6),
    # which took 4.4-5.1 s when the check came at the first row, with this message
    elapsed, err = _refused_in_a_fresh_process(argv)
    assert elapsed < 1
    assert err == ("error: the x^(1/r) normalization at r=1000000 takes the root of a "
                   "40000001-digit integer, limit is 800000\n")


@pytest.mark.parametrize("argv, limit", [
    ("scan --r 2 --k 2 --x-min 2 --x-max 3000", 54),
    ("identity --r 2 --k 3 --x-min 5000 --x-max 6000", 77),  # seeded at 4999, root 70
    ("identity --r 1 --k 4 --x-max 600", 600),
    ("witness --small --r 2 --m 1 --cutoff 1000", 1000),
    ("count --r 2 --k 2 --x 990000", 994),
    ("partial-sum --x 100000 --r 2 --k 3 --method bernoulli", 316),
])
def test_each_command_sieves_once_at_its_largest_root(capsys, monkeypatch, argv, limit):
    # as test_witness_sieves_once_per_run does for a --large list
    sieve, limits = rfree.arith.sieve_mobius, []
    monkeypatch.setattr(rfree.arith, "sieve_mobius", lambda n: limits.append(n) or sieve(n))
    code, _, err = run_cli(argv.split(), capsys)
    assert (code, err, limits) == (0, "", [limit])


def test_scan_row_limit_before_any_sieve(capsys, monkeypatch):
    monkeypatch.setattr(rfree.arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    code, out, err = run_cli(["scan", "--r", "1", "--k", "2", "--x-min", "2",
                              "--x-max", "1000002"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: scan would emit 1000001 records, limit is 1000000\n"


def test_count_rejects_negative_x(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--r", "1", "--k", "2", "--x", "-1"])
    assert exc.value.code == 2


def test_count_rejects_zero_x(capsys):
    # V(r, k, 0) = 0, but the record's normalisation needs x >= 1
    with pytest.raises(SystemExit) as exc:
        main(["count", "--r", "2", "--k", "2", "--x", "0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--x" in err and "expected a positive integer, got 0" in err


def test_count_csv_and_json(capsys):
    code, out, _ = run_cli(
        ["count", "--r", "2", "--k", "1", "--x", "10", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(parse_scan_csv(io.StringIO(out)))
    assert rows[0][:2] == (10, 14)

    code, out, _ = run_cli(
        ["count", "--r", "2", "--k", "1", "--x", "10", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["V"] == "14"           # exact integers as strings
    assert payload[0]["x"] == "10"
    assert set(payload[0]) == set(CSV_COLUMNS)


def test_jordan_command(capsys):
    code, out, _ = run_cli(
        ["jordan", "--n", "6", "--r", "1", "--k", "1", "--oracle"], capsys
    )
    assert code == 0
    assert "= 2" in out
    assert "agreement = true" in out


def test_partial_sum_command(capsys):
    code, out, _ = run_cli(
        ["partial-sum", "--x", "100", "--r", "2", "--k", "3"], capsys
    )
    assert code == 0
    assert "agreement = true" in out
    direct = [l for l in out.splitlines() if l.startswith("direct")]
    bern = [l for l in out.splitlines() if l.startswith("bernoulli")]
    assert direct[0].split(" = ")[1] == bern[0].split(" = ")[1]


def test_partial_sum_direct_route_has_a_budget(capsys, monkeypatch):
    import importlib

    jordan_module = importlib.import_module("rfree.jordan")
    monkeypatch.setattr(jordan_module, "jordan", lambda n, params: pytest.fail("factorized"))
    for method in ("both", "direct"):
        argv = ["partial-sum", "--x", "100000000", "--r", "2", "--k", "2", "--method", method]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: the direct partial sum would factorize 100000000 integers, "
            "limit is 1000000; use --method bernoulli\n"
        )
    argv = ["partial-sum", "--x", "100000000", "--r", "2", "--k", "2", "--method", "bernoulli"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.startswith("bernoulli = ")


def test_partial_sum_bernoulli_route_has_a_budget(capsys):
    argv = ["partial-sum", "--x", "1000", "--r", "2", "--k", "2000", "--method", "bernoulli"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: need 2000 Bernoulli numbers, limit is 400\n"


def test_identity_command(capsys):
    code, out, _ = run_cli(["identity", "--r", "2", "--k", "3", "--x-max", "40"], capsys)
    assert code == 0
    assert "0 mismatches" in out


def test_identity_rejects_inverted_range(capsys):
    code, out, err = run_cli(["identity", "--r", "2", "--k", "3", "--x-min", "5", "--x-max", "3"],
                             capsys)
    assert (code, out, err) == (2, "", "error: need 0 <= x_min <= x_max\n")


def test_identity_mismatch_reports_both_sides(capsys, monkeypatch):
    # one count off by one: that x alone is a mismatch, and zero_split is
    # the true count, the one count_fast gives
    from rfree import lattice
    from rfree.lattice import CountParams, count_fast

    original = lattice.count_progression

    def off_by_one(r, k, xs):
        return [V + (x == 17) for x, V in zip(xs, original(r, k, xs))]

    monkeypatch.setattr(lattice, "count_progression", off_by_one)
    code, out, _ = run_cli(["identity", "--r", "2", "--k", "2", "--x-max", "30"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[:17] == [f"x={x} equal" for x in range(17)]
    assert lines[18:-1] == [f"x={x} equal" for x in range(18, 31)]
    assert lines[-1] == "checked 31 values, 1 mismatches"
    V = count_fast(CountParams(r=2, k=2, x=17))
    assert lines[17] == f"x=17 MISMATCH umbral={V} fast={V + 1} zero_split={V}"


@pytest.mark.parametrize("limit", [None, 100])
def test_identity_range_limit_before_any_sieve(capsys, monkeypatch, limit):
    from rfree import umbral

    x_max = 10**9 if limit is None else limit
    with monkeypatch.context() as patch:
        if limit is not None:
            patch.setattr(umbral, "MAX_SCAN_RECORDS", limit)
        patch.setattr(rfree.arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
        patch.setattr(umbral, "partial_sum_range", lambda *a: pytest.fail("sieved"))
        code, out, err = run_cli(["identity", "--r", "1", "--k", "2", "--x-max", str(x_max)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: identity would check {x_max + 1} values, limit is {limit or 10**6}\n"
    if limit is not None:
        # exactly the limit passes
        monkeypatch.setattr(umbral, "MAX_SCAN_RECORDS", limit)
        code, out, _ = run_cli(["identity", "--r", "1", "--k", "2", "--x-min", "1",
                                "--x-max", str(x_max)], capsys)
        assert code == 0
        assert out.endswith(f"checked {limit} values, 0 mismatches\n")


@pytest.mark.parametrize(
    "command,limit",
    [
        ("count --r 1 --k 2 --x 1000000000", 10**9),
        ("identity --r 1 --k 2 --x-min 10000000000 --x-max 10000000000", 10**10),
        ("scan --r 1 --k 2 --x-min 2 --x-max 1000000000 --step 1000", 10**9),
    ],
)
def test_sieve_limit_before_any_allocation(capsys, monkeypatch, command, limit):
    # each would sieve mu to 1e9 or 1e10 entries; no bytearray that large
    # may be asked for, so a missing check fails here instead of allocating
    def small_only(*args):
        if args and isinstance(args[0], int) and args[0] > rfree.arith.SIEVE_LIMIT + 1:
            pytest.fail(f"allocated {args[0]} entries")
        return bytearray(*args)

    monkeypatch.setattr(rfree.arith, "bytearray", small_only, raising=False)
    code, out, err = run_cli(command.split(), capsys)
    assert (code, out) == (1, "")
    assert err == f"error: Mobius sieve to {limit} needs {limit + 1} entries, limit is {10**7}\n"


def test_identity_invariant_violation_is_an_error_line(capsys, monkeypatch):
    from rfree import umbral

    coeffs = list(umbral.umbral_coefficients(2))
    coeffs[2] += Fraction(1, 3)
    monkeypatch.setattr(umbral, "umbral_coefficients", lambda k: tuple(coeffs))
    code, out, err = run_cli(["identity", "--r", "1", "--k", "2", "--x-max", "5"], capsys)
    assert (code, out) == (1, "x=0 equal\n")
    assert err.startswith("error: umbral evaluation at r=1, k=2, x=1 is non-integral")


def test_identity_r1_k1(capsys):
    code, out, _ = run_cli(["identity", "--r", "1", "--k", "1", "--x-max", "50"], capsys)
    assert code == 0
    assert "0 mismatches" in out


def test_scan_row_count_and_round_trip(capsys):
    argv = ["scan", "--r", "1", "--k", "3", "--x-min", "10", "--x-max", "120",
            "--workers", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 111
    rows = list(parse_scan_csv(io.StringIO(out)))
    assert rows[0][0] == 10 and rows[-1][0] == 120
    # parsing and re-rendering reproduces the file byte for byte
    rendered = [",".join(CSV_COLUMNS), *(",".join(map(str, row)) for row in rows)]
    assert "\n".join(rendered) + "\n" == out


def test_scan_is_deterministic(capsys):
    argv = ["scan", "--r", "2", "--k", "2", "--x-min", "10", "--x-max", "60",
            "--workers", "1"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_scan_rejects_inverted_range(capsys):
    code, out, err = run_cli(["scan", "--r", "1", "--k", "2", "--x-min", "10", "--x-max", "5"],
                             capsys)
    assert (code, out, err) == (2, "", "error: x_max must be >= x_min\n")


@pytest.mark.parametrize(
    "bounds,code,message",
    [
        (["--x-min", "1", "--x-max", "5"], 2, "x_min must be >= 2"),
        (["--x-min", "2", "--x-max", "2000000"], 1, "limit is"),
    ],
)
def test_scan_rejects_input_before_any_output(tmp_path, capsys, bounds, code, message):
    out_path = tmp_path / "scan.csv"
    got, out, err = run_cli(["scan", "--r", "2", "--k", "2", *bounds], capsys)
    assert (got, out) == (code, "")
    assert message in err
    got, out, _ = run_cli(
        ["scan", "--r", "2", "--k", "2", *bounds, "--output", str(out_path)], capsys
    )
    assert (got, out) == (code, "")
    assert not out_path.exists()


def test_scan_into_closed_pipe_exits_quietly():
    # ~600 KB of rows: more than a pipe holds once the reader has gone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rfree.cli", "scan", "--r", "2", "--k", "2",
         "--x-min", "10000", "--x-max", "14000", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        header = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert header == (",".join(CSV_COLUMNS) + "\n").encode()
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("argv", [["count", "--r", "1", "--k", "1", "--x", "5"],
                                  ["scan", "--r", "1", "--k", "1", "--x-min", "2", "--x-max", "5"]])
def test_rk_1_has_no_main_term_and_says_so(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: r*k = 1 has no main term: (2x)^k/zeta(rk) needs r*k >= 2\n"


def test_count_oracle_over_budget_is_one_error_line(capsys):
    argv = ["count", "--r", "2", "--k", "3", "--x", "1000", "--oracle", "--budget", "10"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: count_oracle needs 8012006001 tuples, budget is 10\n"


def test_jordan_oracle_over_budget_keeps_the_value_line(capsys):
    argv = ["jordan", "--n", "100", "--r", "1", "--k", "3", "--oracle", "--budget", "10"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "J(r=1, k=3, n=100) = 868000\n")
    assert err == "error: jordan_oracle needs 1000000 tuples, budget is 10\n"


def _assert_one_error_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_scan_to_a_full_device_is_one_error_line(capsys):
    argv = ["scan", "--r", "2", "--k", "2", "--x-min", "2", "--x-max", "20",
            "--output", "/dev/full"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    _assert_one_error_line(err)
    assert err == "error: [Errno 28] No space left on device: '/dev/full'\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_count_into_a_full_stdout_is_one_error_line(unbuffered):
    # buffered, the write fails only when stdout is flushed; unbuffered, in print
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "rfree.cli", "count", "--r", "2", "--k", "2", "--x", "10"],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    assert proc.returncode == 1
    _assert_one_error_line(proc.stderr.decode())
    assert proc.stderr == b"error: [Errno 28] No space left on device: '<stdout>'\n"


class _FailingStream(io.StringIO):
    def __next__(self):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def test_report_from_a_failing_stdin_names_stdin(capsys, monkeypatch):
    # a read error carries no filename: the line names the stream read, not stdout
    monkeypatch.setattr(sys, "stdin", _FailingStream())
    code, out, err = run_cli(["report", "--split", "5"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: [Errno 5] Input/output error: '<stdin>'\n"


def test_scan_to_file_and_report(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        ["scan", "--r", "2", "--k", "2", "--x-min", "10", "--x-max", "400",
         "--workers", "1", "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["report", "--split", "200", "--input", str(out_path)], capsys
    )
    assert code == 0
    assert "ratio = " in out


def test_report_constant_rows(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    header = ",".join(CSV_COLUMNS)
    rows = [f"{x},1,1.0,1.0,2.500,0.5" for x in (1, 5, 9)]
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    code, out, _ = run_cli(["report", "--split", "5", "--input", str(csv_path)], capsys)
    assert code == 0
    assert "ratio = 1" in out


def test_report_empty_window_fails(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    header = ",".join(CSV_COLUMNS)
    csv_path.write_text(header + "\n1,1,1.0,1.0,2.5,0.5\n")
    code, _, err = run_cli(["report", "--split", "100", "--input", str(csv_path)], capsys)
    assert code == 1
    assert "window" in err


@pytest.mark.parametrize(
    "row",
    ["5,1,1.0,abc,2.5,0.5", "5,1,1.0,1.0,2.5", "5,1,1.0,1.0,NaN,0.5"],
    ids=["non-numeric", "five-fields", "nan"],
)
def test_report_rejects_bad_rows(capsys, tmp_path, row):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + "\n1,1,1.0,1.0,2.5,0.5\n" + row + "\n")
    code, out, err = run_cli(["report", "--split", "5", "--input", str(csv_path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: scan CSV line 3 is not six finite numbers: {row!r}\n"


def test_report_accepts_finite_rows_whose_sum_overflows(capsys, tmp_path):
    # each value is finite; their sum overflows Decimal's default context
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + "\n5,1,9e999999,9e999999,1,1\n9,1,1.0,1.0,2,0.5\n")
    code, out, err = run_cli(["report", "--split", "9", "--input", str(csv_path)], capsys)
    assert (code, err) == (0, "")
    assert "max_early = 1\nmax_late = 2\nratio = 2\n" in out


@pytest.mark.parametrize(
    "early,late,printed",
    [
        # abs() overflowed Decimal's default context: a traceback before
        ("1", "9e1000000", ["max_early = 1", "max_late = 9E+1000000", "ratio = 9E+1000000"]),
        ("9e1000000", "2", ["max_early = 9E+1000000", "max_late = 2",
                            "ratio = 2.222222222222222222222222222222222222222E-1000001"]),
        # the ratio's division overflowed: a traceback before
        ("1e-5", "9e999999", ["max_early = 0.00001", "max_late = 9E+999999",
                              "ratio = 9E+1000004"]),
        # flushed to 0E-1000026 before, so the ratio read Infinity, or 0
        ("1e-999999999", "1", ["max_early = 1E-999999999", "max_late = 1",
                               "ratio = 1E+999999999"]),
        ("1", "1e-999999999", ["max_early = 1", "max_late = 1E-999999999",
                               "ratio = 1E-999999999"]),
    ],
)
def test_report_reads_finite_extreme_values_exactly(capsys, tmp_path, early, late, printed):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(f"{','.join(CSV_COLUMNS)}\n1,1,1.0,1.0,{early},0.5\n"
                        f"9,1,1.0,1.0,{late},0.5\n")
    code, out, err = run_cli(["report", "--split", "5", "--input", str(csv_path)], capsys)
    assert (code, err) == (0, "")
    assert out == "\n".join(["split = 5", *printed]) + "\n"


def test_report_rejects_nan_min_ratio_before_output(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + "\n1,1,1.0,1.0,2.5,0.5\n9,1,1.0,1.0,2.5,0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["report", "--split", "5", "--input", str(csv_path), "--min-ratio", "nan"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "error: argument --min-ratio: expected a finite number, got nan" in err


def test_parse_scan_csv_yields_each_row_as_it_is_read():
    def lines():
        yield ",".join(CSV_COLUMNS)
        yield "5,1,1.0,1.0,2.5,0.5"
        yield "9,2,1.0,1.0,2.5,0.5"
        raise OSError(errno.EIO, "line 4 is unreadable")

    rows = parse_scan_csv(lines())
    assert next(rows) == (5, 1, "1.0", "1.0", "2.5", "0.5")
    assert next(rows)[1] == 2
    with pytest.raises(OSError, match="line 4 is unreadable"):
        next(rows)


# Prints the peak RSS of the command after it, which it forks: a process
# forked from this test's interpreter would start at the test run's own peak.
_PEAK_RSS_KB = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], "
                "stdout=subprocess.DEVNULL); _, status, usage = os.wait4(child.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_kb(code, *argv):
    # (exit status, peak RSS in KB) of python -c code in a fresh process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-I", "-S", "-c", _PEAK_RSS_KB,
                           sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, check=True)
    status, peak_kb = map(int, done.stdout.split())
    return status, peak_kb


def _cli_peak_kb(*argv):
    # (exit status, peak RSS in KB) of rfree.cli in a fresh process
    return _peak_kb("import sys; from rfree.cli import main; sys.exit(main())", *argv)


def _python_peak_kb(code):
    status, peak_kb = _peak_kb(code)
    assert status == 0
    return peak_kb


def _report_peak_kb(tmp_path, rows):
    path = tmp_path / f"scan-{rows}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for x in range(10**6, 10**6 + rows):
            digits = f"{x:030d}"
            fh.write(f"{x},{4 * x * x},{4 * x * x}.{digits},-{x % 997}.{digits},0.{digits},0.{digits}\n")
    status, peak_kb = _cli_peak_kb("report", "--split", str(10**6 + rows // 2), "--input", str(path))
    assert status == 0
    return peak_kb


def test_report_memory_does_not_grow_with_the_row_count(tmp_path):
    # a held row costs about 0.6 KB, so 38,000 more held rows would add about 23 MB
    small, large = _report_peak_kb(tmp_path, 2_000), _report_peak_kb(tmp_path, 40_000)
    assert abs(large - small) <= 3 * 1024, (small, large)


def test_report_missing_input_reports_path(capsys, tmp_path):
    missing = tmp_path / "nope.csv"
    code, _, err = run_cli(["report", "--split", "5", "--input", str(missing)], capsys)
    assert code == 1
    assert str(missing) in err


def test_witness_large_command(capsys):
    code, out, _ = run_cli(
        ["witness", "--large", "--r", "2", "--k", "2", "--count", "5"], capsys
    )
    assert code == 0
    assert out.count("verdict = negative") == 5
    assert out.count("x = ") == 5


def test_witness_prints_its_first_line_before_the_next_certificate_is_computed(capsys, monkeypatch):
    import rfree.omega

    certify, printed = rfree.omega.certify_witness, []

    def certify_after_reading_stdout(x, r, k, cutoff):
        printed.append(capsys.readouterr().out)
        return certify(x, r, k, cutoff)

    monkeypatch.setattr(rfree.omega, "certify_witness", certify_after_reading_stdout)
    assert main(["witness", "--large", "--r", "2", "--k", "2", "--count", "3"]) == 0
    printed.append(capsys.readouterr().out)
    # the first line at once, the later ones in blocks of BLOCK_ROWS lines
    assert printed[:3] == ["", "x = 11\n", ""]
    assert [line for line in printed[3].splitlines() if line.startswith("x = ")] == \
        ["x = 15", "x = 19"]
    assert printed[3].count("verdict = negative") == 3


def test_witness_count_past_the_limit_fails_before_any_certificate(capsys, monkeypatch):
    import rfree.omega

    monkeypatch.setattr(rfree.omega, "certify_witness", lambda *args, **kw: pytest.fail("certified"))
    argv = ["witness", "--large", "--r", "2", "--k", "2", "--count", "1000001"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: 1000001 exact frac-sum(s) over d <= 2000 on P^6 need "
                   f"{rfree.omega.frac_sum_work(1000001, 2000, 6)} work units, "
                   "limit is 20000000000; pass a smaller cutoff or fewer x\n")


def test_witness_work_past_the_budget_fails_before_any_certificate(capsys, monkeypatch):
    import rfree.omega

    monkeypatch.setattr(rfree.omega, "certify_witness", lambda *args, **kw: pytest.fail("certified"))
    monkeypatch.setattr(rfree.arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    argv = ["witness", "--large", "--r", "2", "--k", "2", "--count", "1000000"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: 1000000 exact frac-sum(s) over d <= 2000 on P^6 need ")
    assert err.count("\n") == 1 and "limit is 20000000000" in err


@pytest.mark.parametrize("k, count", [(60, 10000), (200, 3000)])
def test_witness_large_k_past_the_work_limit_fails_before_any_certificate(capsys, monkeypatch, k, count):
    # within the old count and d-step limits, these lists ran for 103 s and 87 s
    import rfree.omega

    monkeypatch.setattr(rfree.omega, "certify_witness", lambda *args, **kw: pytest.fail("certified"))
    monkeypatch.setattr(rfree.arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    argv = ["witness", "--large", "--r", "2", "--k", str(k), "--count", str(count)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {count} exact frac-sum(s) over d <= ")
    assert err.count("\n") == 1 and err.endswith("pass a smaller cutoff or fewer x\n")


def test_refused_witness_list_costs_no_memory():
    # the list is a range, so a refused --count 1000000 peaks as --count 1 does
    status, one = _cli_peak_kb("witness", "--large", "--r", "2", "--k", "2", "--count", "1")
    assert status == 0
    status, refused = _cli_peak_kb("witness", "--large", "--r", "2", "--k", "2", "--count", "1000000")
    assert status == 1
    assert abs(refused - one) <= 1024, (one, refused)


def test_witness_sieves_once_per_run(capsys, monkeypatch):
    sieve, limits = rfree.arith.sieve_mobius, []

    def recording(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(rfree.arith, "sieve_mobius", recording)
    code, out, _ = run_cli(["witness", "--large", "--r", "2", "--k", "2", "--count", "40"], capsys)
    # 40 certificates, the last at x = 167, sum over d <= floor(sqrt(x))
    assert code == 0 and out.count("verdict = negative") == 40
    assert limits == [12]


def _certificate_text(rep):
    # each line formatted on its own, as before texts were shared
    lines = [f"x = {rep.x}"]
    for name in ("finite_part", "tail_bound", "upper_bound"):
        lines.append(f"{name} = {getattr(rep, name)} ({_frac_sci(getattr(rep, name))})")
    lines.append(f"verdict = {rep.verdict}")
    met = "true" if rep.upper_bound < rep.target_bound else "false"
    lines.append(f"target_bound = {rep.target_bound} ({_frac_sci(rep.target_bound)}) met = {met}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("cutoff", [None, 9])
def test_witness_list_across_tops_prints_every_certificate(capsys, cutoff):
    # x = 11..247 cross 12 tops, or 6 under --cutoff 9, which also mixes
    # certificates with and without a tail
    import rfree.omega

    argv = ["witness", "--large", "--r", "2", "--k", "2", "--count", "60"]
    code, out, _ = run_cli(argv + ([] if cutoff is None else ["--cutoff", str(cutoff)]), capsys)
    xs = rfree.omega.witness_large(2, 2, 60)
    reports = [rfree.omega.certify_witness(x, 2, 2, cutoff) for x in xs]
    assert code == 0 and out == "".join(map(_certificate_text, reports))
    assert len({rep.tail_bound for rep in reports}) == (1 if cutoff is None else 2)


def test_large_exact_sums_stream_their_terms():
    # at cutoff 10,000 the 6,083 terms of the one sum are up to 57,108 bits each,
    # 43 MB if held at once; a list of two x that share that top holds none either
    status, small = _cli_peak_kb("witness", "--small", "--r", "2", "--m", "1", "--cutoff", "100")
    assert status == 0
    status, large = _cli_peak_kb("witness", "--small", "--r", "2", "--m", "1", "--cutoff", "10000")
    assert status == 0 and large - small <= 4 * 1024, (small, large)
    code = ("from rfree.omega import certify_witnesses as c, witness_small as w; "
            "all(c([w(2, 1), w(2, 101)], 2, 1, cutoff={}))")
    peaks = [_python_peak_kb(code.format(cutoff)) for cutoff in (100, 10000)]
    assert peaks[1] - peaks[0] <= 4 * 1024, peaks


def test_power_sums_hold_no_run_after_it_closes():
    # at x = 600000^50 + 600000^49 the 364,000 or so runs of power_sums have
    # quotients of about 72 bits; kept as two lists they took 32 MB more than
    # the sieve of 600,000 entries alone
    code = ("from rfree.arith import sieve_mobius; t = sieve_mobius(600000); "
            "x = 600000**50 + 600000**49; {}")
    sieve, sums = (_python_peak_kb(code.format(call))
                   for call in ("pass", "t.power_sums(x, 50, 1)"))
    assert sums - sieve <= 4 * 1024, (sieve, sums)


def test_witness_large_rejects_small_rk(capsys):
    code, out, err = run_cli(["witness", "--large", "--r", "2", "--k", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: witness_large (--large) applies to r >= 2 with r*k >= 4")
    assert "(--small) for the (r, k) = (2, 1) and (3, 1) cases" in err


def test_witness_small_command(capsys):
    code, out, _ = run_cli(["witness", "--small", "--r", "2", "--m", "1"], capsys)
    assert code == 0
    assert "verdict = negative" in out
    assert "target_bound = -1/20" in out


def test_witness_small_prints_long_fractions_in_full(capsys):
    # at cutoff 3000 the exact finite part runs past Python's default
    # 4300-digit cap on int -> str conversion
    from rfree import certify_witness, witness_small

    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run_cli(
            ["witness", "--small", "--r", "2", "--m", "1", "--cutoff", "3000"], capsys
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300  # lifted only while printing
        assert "verdict = negative" in out
        printed = re.search(r"^finite_part = (\S+) \(", out, re.MULTILINE).group(1)
        assert len(printed) > 4300
        expected = certify_witness(witness_small(2, 1), 2, 1, cutoff=3000).finite_part
        sys.set_int_max_str_digits(0)
        assert Fraction(printed) == expected
    finally:
        sys.set_int_max_str_digits(cap)


def test_witness_cutoff_past_the_guard_fails_before_output(capsys, monkeypatch):
    monkeypatch.setattr(rfree.arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    argv = ["witness", "--small", "--r", "2", "--m", "1", "--cutoff", "20000000"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: 1 exact frac-sum(s) over d <= 20000000 on P^4 need ")
    assert err.count("\n") == 1 and "limit is 20000000000" in err


@pytest.fixture
def digit_cap_4300():
    # the interpreter's default cap on int <-> str digits, restored after
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(cap)


def test_count_and_jordan_print_past_the_digit_cap(capsys, digit_cap_4300):
    from rfree.jordan import TotientParams, jordan

    code, out, err = run_cli(["count", "--r", "2", "--k", "2000", "--x", "1000"], capsys)
    assert (code, err) == (0, "")
    V = re.search(r"^V = (\d+)$", out, re.MULTILINE).group(1)
    code, out, err = run_cli(["jordan", "--n", "6", "--r", "1", "--k", "10000"], capsys)
    assert (code, err) == (0, "")
    J = out.removeprefix("J(r=1, k=10000, n=6) = ").strip()
    assert sys.get_int_max_str_digits() == 4300  # lifted only inside main
    assert len(V) > 4300 and len(J) > 4300
    sys.set_int_max_str_digits(0)
    assert int(V) == count_fast(CountParams(r=2, k=2000, x=1000))
    assert int(J) == jordan(6, TotientParams(r=1, k=10000))


def test_scan_past_the_digit_cap_round_trips_through_report(tmp_path, capsys, digit_cap_4300):
    # both V have 4,622 digits, past the default cap, in one CSV row each
    argv = ["scan", "--r", "2", "--k", "1400", "--x-min", "999", "--x-max", "1000"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("x,V,") and len(out.splitlines()) == 3
    path = tmp_path / "scan.csv"
    path.write_text(out)
    code, out, err = run_cli(["report", "--split", "1000", "--input", str(path)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("split = 1000\n")
    assert sys.get_int_max_str_digits() == 4300


def test_witness_small_rejects_even_m(capsys):
    code, out, err = run_cli(["witness", "--small", "--r", "2", "--m", "2"], capsys)
    assert (code, out, err) == (2, "", "error: m must be coprime to 2 and all odd primes < 100\n")


@pytest.mark.parametrize(
    "argv",
    [
        "scan --r 2 --k 2 --x-min 5 --x-max 3",
        "scan --r 2 --k 2 --x-min 5 --x-max 3 --format json",
        "identity --r 2 --k 2 --x-min 5 --x-max 3",
        "witness --large --r 1 --k 5",
        "witness --large --r 2 --k 1",
        "witness --small --r 4 --m 1",
        "witness --small --r 2 --m 2",
    ],
)
def test_rejected_library_inputs_exit_2_with_one_error_line(capsys, argv):
    # the library's ValueError reaches main's one handler: no usage text
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "usage:" not in err and "Traceback" not in err


def test_witness_requires_branch(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--r", "2", "--k", "2"])
    assert exc.value.code == 2


def test_zeta_command(capsys):
    code, out, _ = run_cli(["zeta", "--s", "4", "--precision", "1e-10"], capsys)
    assert code == 0
    assert "zeta(4) = 1.0823232337" in out
    assert "error_radius" in out


def test_zeta_radius_below_float_range(capsys):
    code, out, _ = run_cli(["zeta", "--s", "4", "--precision", "1e-900"], capsys)
    assert code == 0
    value, radius, depth = out.splitlines()
    z = zeta_value(4, Fraction(1, 10**900))
    assert value.startswith("zeta(4) = 1.0823232337111381915160036965411679027747")
    assert depth == f"depth = {z.depth}"
    printed = Fraction(Decimal(radius.removeprefix("error_radius <= ")))
    # six digits after the point: within half a unit of the 7th significant digit
    assert 0 < printed <= Fraction(1, 10**900)
    assert abs(printed - z.radius) <= printed / 10**6


def test_zeta_radius_line_is_an_upper_bound(capsys):
    # rounded toward +infinity: half-even printed 4.972468e-59 for s = 8 at
    # 1e-58, below its radius 4.97246802...e-59
    for s in range(2, 9):
        for places in range(1, 60):
            code, out, _ = run_cli(["zeta", "--s", str(s), "--precision", f"1e-{places}"], capsys)
            assert code == 0
            printed = Fraction(Decimal(out.splitlines()[1].removeprefix("error_radius <= ")))
            radius = zeta_value(s, Fraction(1, 10**places)).radius
            assert radius <= printed <= radius * (1 + Fraction(1, 10**6)), (s, places)


@pytest.mark.parametrize(
    "q",
    [Fraction(1, 20), Fraction(-3, 64), Fraction(181, 256), Fraction(-1, 16),
     Fraction(10**300, 7), Fraction(-2, 10**300), Fraction(7)],
)
def test_frac_sci_matches_float_formatting(q):
    assert _frac_sci(q) == f"{float(q):.6e}"


def test_frac_sci_outside_float_range():
    assert _frac_sci(Fraction(1, 10**900)) == "1.000000e-900"
    assert _frac_sci(Fraction(-(10**400), 3)) == "-3.333333e+399"
    assert _frac_sci(Fraction(9_999_999_5, 10**1007)) == "1.000000e-999"
    assert _frac_sci(Fraction(0)) == "0"


def _frac_sci_by_digit_loop(q: Fraction, sig: int = 6, up: bool = False) -> str:
    """The reference: the leading sig + 1 digits of |q| found by integer
    division at a decimal exponent guessed from bit lengths, rounded half to
    even, or away from zero with ``up``. The exponent is fixed by the
    truncated digits, before rounding can carry into a new digit."""
    if q == 0:
        return "0"
    num, den = abs(q.numerator), q.denominator

    def digits_at(exp: int) -> tuple[int, int, int]:
        shift = sig - exp
        n, d = num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0)
        return (*divmod(n, d), d)

    exp = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while digits_at(exp)[0] >= 10 ** (sig + 1):
        exp += 1
    while digits_at(exp)[0] < 10**sig:
        exp -= 1
    digits, rem, d = digits_at(exp)
    digits += rem > 0 if up else 2 * rem > d or (2 * rem == d and digits % 2)
    if digits == 10 ** (sig + 1):  # 9.99..95 carried to 10.00..0
        digits, exp = 10**sig, exp + 1
    text = str(digits)
    sign = "-" if q < 0 else ""
    return f"{sign}{text[0]}.{text[1:]}e{exp:+03d}"


_big_terms = st.integers(-(10**60), 10**60)
_scales = st.integers(-1200, 1200)


@st.composite
def _rationals_past_float_range(draw):
    num = draw(_big_terms.filter(bool))
    den = draw(st.integers(1, 10**60))
    exp = draw(_scales)
    # ties and carries: d.dddddd5 and 9.9999995 at a random exponent
    num = draw(st.sampled_from([num, 10**7 * (num % 10**6) + 5, 99_999_995, -99_999_995]))
    return Fraction(num, den) * Fraction(10) ** exp


@settings(max_examples=400, deadline=None)
@given(q=_rationals_past_float_range(), up=st.booleans(), sig=st.sampled_from([6, 6, 1, 12]))
@example(q=Fraction(1, 2**5999), up=False, sig=6)
@example(q=Fraction(1, 2**5999), up=True, sig=6)
@example(q=Fraction(99_999_995, 10**7), up=False, sig=6)
@example(q=Fraction(99_999_991, 10**7), up=True, sig=6)
@example(q=Fraction(0), up=True, sig=6)
def test_frac_sci_matches_the_digit_loop(q, up, sig):
    assert _frac_sci(q, sig, up) == _frac_sci_by_digit_loop(q, sig, up)


def test_jordan_past_factor_bound_is_resource_error(capsys):
    n = str(10**30 + 57)
    code, out, err = run_cli(["jordan", "--n", n, "--r", "1", "--k", "1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and n in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--s", "2"],
        ["count", "--r", "2", "--k", "1", "--x", "10"],
        ["scan", "--r", "2", "--k", "2", "--x-min", "10", "--x-max", "11"],
    ],
)
def test_precision_limit_is_1e_1000(capsys, monkeypatch, argv):
    def no_zeta(*args):
        raise AssertionError("zeta computed for a rejected precision")

    with monkeypatch.context() as patch:
        patch.setattr(rfree.arith, "zeta_enclosure", no_zeta)
        code, out, err = run_cli([*argv, "--precision", "1e-1001"], capsys)
    assert (code, out) == (2, "")
    assert "1e-1000" in err
    code, out, _ = run_cli([*argv, "--precision", "1e-1000"], capsys)
    assert code == 0
    assert re.search(r"\.\d{1000}\b", out)


# stdout SHA-256 of outputs whose every digit is fixed by exact arithmetic
GOLDEN_OUTPUTS = {
    "scan --r 2 --k 2 --x-min 2 --x-max 3000":
        "2421c56276d0ba6b297c2874b7c34e12b6aa01bf39c5836be356780183b1afd3",
    "scan --r 3 --k 2 --x-min 2 --x-max 50000 --step 7":
        "4d6c5b8c8ba5ad7844812db284e3d58afe69b2051e2acab6dd22e7b04a77b566",
    "scan --r 2 --k 1 --x-min 2 --x-max 3000":
        "7adb5f49f4cf12f2a70936672d7b6312d6c4a55cc76a3f080c785e19dd60cb03",
    "count --r 2 --k 1 --x 10":
        "89535d4a328835b7194832a1c77c08d841242255464ee650821953042a5e8952",
    "identity --r 2 --k 3 --x-max 6000":
        "9d1e9317c65bf5ce32ed26800e1aba26a3e02852f9b6fc67a8c2df683f902085",
    "identity --r 1 --k 4 --x-max 600":
        "2d3545736ca5a02e637db5eb20da26e77695268d03892dbb19c3673719e33965",
    "scan --r 2 --k 2 --x-min 990000 --x-max 1000000":
        "050b1e5555f829df234928d14e9ca8370cb83daaec4e900493314f1469a248a6",
    "scan --r 2 --k 2 --x-min 2 --x-max 3000 --format json":
        "bf8c7b1a8bbf5fe5c49b925dd0f717d62b724efe4042489aeac6e2287ad0d366",
    "count --r 3 --k 2 --x 10000 --format json":
        "c4b0595b6befa56dfa6790926aed70a959460f2dd069a73afe01926175726d58",
    "count --r 1 --k 2 --x 1":
        "3e82bc468bce73930ff236f9c9ca6cd58bbe29c25c17c812e637c4e5ab55bfec",
    "witness --large --r 2 --k 2 --count 800":
        "48a1a88259c4dac73384ee5017f73e5da95f072a8cbefa78992b4e32191eb300",
    "witness --large --r 2 --k 2 --count 60 --cutoff 9":
        "5d6eb9b7f4b50c4e292d9fd580021769f33bdc15a422dec31dacfc9465dd2133",
    "witness --small --r 2 --m 101 --cutoff 1000":
        "9d84e3fa08d30728293959a1214ddece83eafa24c8e1c86ba7e0f13afb9e565e",
    "witness --small --r 3 --m 1":
        "d961a0b3b0c64c51e72e7964f6f2a5350c0e79075573d842cf0058c55208c302",
    "zeta --s 4 --precision 1e-900":
        "1e9f75d039210d934c1fcdc6963b41dec41d2c3828a4df8fe0fc57d0481022d9",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_OUTPUTS))
def test_output_bytes_are_golden(capsys, monkeypatch, tmp_path, command):
    # flags are the only settings: the variables that once stood in for
    # --precision, --budget, --format and --output change nothing
    out_path = tmp_path / "out.txt"
    for name, value in (("PRECISION", "1e-6"), ("ENUMERATION_BUDGET", "1"),
                        ("OUTPUT_FORMAT", "json"), ("OUTPUT_PATH", str(out_path))):
        monkeypatch.setenv(f"RFREE_{name}", value)
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUTS[command]
    assert not out_path.exists()


@pytest.mark.parametrize("command", sorted(c for c in GOLDEN_OUTPUTS if c.startswith("scan ")))
def test_scan_builds_no_record(capsys, monkeypatch, command):
    # CSV and JSON scans render count_rows's fields: no CountRecord, no
    # count_record and no record_fields, and the golden bytes
    import rfree.cli
    import rfree.lattice

    built = []
    for module, name in ((rfree.lattice, "CountRecord"), (rfree.lattice, "count_record"),
                         (rfree.cli, "record_fields")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kw: built.append(name))
    code, out, _ = run_cli(command.split(), capsys)
    assert (code, built) == (0, [])
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUTS[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--r", "2", "--k", "1", "--x", "10", "--output"],
        ["jordan", "--n", "6", "--r", "1", "--k", "1", "--format", "json"],
        ["zeta", "--s", "4", "--workers", "4"],
        ["report", "--split", "5", "--precision", "1e-5"],
        ["scan", "--r", "2", "--k", "2", "--x-min", "10", "--x-max", "11", "--format", "text"],
    ],
)
def test_unread_flag_is_usage_error(tmp_path, capsys, argv):
    # each subcommand declares only the flags and values it reads; scan has no
    # text table
    out_path = tmp_path / "out.txt"
    if argv[-1] == "--output":
        argv = [*argv, str(out_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out_path.exists()


def test_oracles_default_to_the_cli_budget():
    import inspect

    from rfree.cli import build_parser
    from rfree.jordan import jordan_oracle
    from rfree.lattice import count_oracle

    parser = build_parser()
    parsed = {parser.parse_args(argv).budget for argv in (
        ["count", "--r", "1", "--k", "1", "--x", "1"], ["jordan", "--n", "1", "--r", "1", "--k", "1"])}
    defaults = {inspect.signature(oracle).parameters["budget"].default
                for oracle in (count_oracle, jordan_oracle)}
    assert parsed == defaults == {rfree.arith.ENUMERATION_BUDGET} == {10**8}


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Rows rendered from integers, against the Fraction enclosures
# ---------------------------------------------------------------------------

def _fraction_route(params, V, zeta, places):
    """The reference route: enclosures and fields from Fraction arithmetic on
    Enclosure.scale, rsub and abs, and the normalized error as |error| over a
    norm taken by Decimal's own power and ln at places + 40 digits."""
    x, k = params.x, params.k
    main_term = zeta.reciprocal().scale((2 * x) ** k)
    error = main_term.rsub(V)
    if (params.r, k, x) == (1, 2, 1):
        normalized = Decimal("NaN")
    else:
        with localcontext() as ctx:
            ctx.prec = places + 40
            if params.r >= 2 and k == 1:
                norm = Decimal(x) ** (Decimal(1) / params.r)
            elif (params.r, k) == (1, 2):
                norm = Decimal(x) * Decimal(x).ln()
            else:
                norm = Decimal(x ** (k - 1))
            size = error.abs().mid
            normalized = Decimal(size.numerator) / Decimal(size.denominator) / norm
            normalized = normalized.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP)
    fields = {
        "x": str(x),
        "V": str(V),
        "main_term": format_fraction(main_term.mid, places),
        "error": format_fraction(error.mid, places),
        "normalized_error": format(normalized, "f"),
        "density": format_fraction(Fraction(V, (2 * x + 1) ** k), places),
    }
    return main_term, error, fields


def _check_integer_row(r, k, x, V, precision):
    params = CountParams(r=r, k=k, x=x)
    if V is None:
        V = count_fast(params)
    zeta, places = zeta_value(r * k, precision), decimal_places(precision)
    rec = count_record(params, precision, V=V)
    main_term, error, fields = _fraction_route(params, V, zeta, places)
    assert (rec.main_term, rec.error) == (main_term, error)
    assert rec.places == places and dict(zip(CSV_COLUMNS, record_fields(rec))) == fields
    assert format(rec.normalized_error, "f") == fields["normalized_error"]
    return rec


PRECISIONS = [Fraction(1, 10**30), Fraction(1, 10), Fraction(1, 2), Fraction(3, 10**7)]


@st.composite
def _rows(draw):
    r, k = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda rk: rk[0] * rk[1] >= 2))
    x = draw(st.integers(1, 10**6))
    # None: the real count; else any count the box allows
    return r, k, x, draw(st.none() | st.integers(0, (2 * x + 1) ** k))


@settings(max_examples=300, deadline=None)
@given(row=_rows(), precision=st.sampled_from(PRECISIONS))
@example(row=(1, 2, 1, None), precision=PRECISIONS[0])
@example(row=(2, 2, 990_000, None), precision=PRECISIONS[0])
def test_integer_rows_match_the_fraction_route(row, precision):
    _check_integer_row(*row, precision)


@pytest.mark.parametrize(
    "r,k,precision",
    [(2, 1, Fraction(1, 10**30)), (3, 1, Fraction(1, 10**30)),
     (2, 1, Fraction(1, 10**60)), (1, 2, Fraction(1, 10**60))],
)
def test_irrational_norms_match_the_reference_on_every_row(r, k, precision):
    # x^(1/r) and x log x are irrational: every printed digit of every row
    # must be the reference's, not one rounded from a shorter norm
    for x in range(2, 2001):
        _check_integer_row(r, k, x, None, precision)


@pytest.mark.parametrize(
    "r,k,x,V,precision,case",
    [
        (1, 2, 1, None, Fraction(1, 10**30), "nan"),
        (2, 2, 10, 0, Fraction(1, 10**30), "negative"),
        (3, 2, 1000, None, Fraction(1, 10), "straddle"),
        (2, 2, 1000, 3_695_000, Fraction(1, 10), "straddle"),  # error midpoint < 0
        (2, 3, 77, None, Fraction(1, 2), "straddle"),
    ],
)
def test_integer_rows_cover_nan_negative_and_straddle(r, k, x, V, precision, case):
    rec = _check_integer_row(r, k, x, V, precision)
    error = rec.error
    if case == "nan":
        assert rec.normalized_error.is_nan()
    elif case == "negative":
        assert error.hi < 0 and record_fields(rec)[CSV_COLUMNS.index("error")].startswith("-")
    else:
        # the ball holds 0, so |error|'s midpoint is (|mid| + radius) / 2
        assert error.lo < 0 < error.hi
        assert error.abs().mid == (abs(error.mid) + error.radius) / 2


@pytest.mark.parametrize(
    "r,x,normalized",
    [(2, 67490, "0.000000801639080291676408046591"),
     (3, 138620, "0.000000497058725533297186495905")],
)
def test_normalized_error_below_one_millionth_prints_in_fixed_point(capsys, r, x, normalized):
    # str() of a Decimal switches to E notation below 1e-6; a field keeps its places
    code, out, _ = run_cli(["count", "--r", str(r), "--k", "1", "--x", str(x)], capsys)
    assert code == 0 and f"\nnormalized_error = {normalized}\n" in out
    _check_integer_row(r, 1, x, None, Fraction(1, 10**30))


@pytest.mark.parametrize(
    "r,k,x_min,x_max,step,precision",
    [
        (2, 2, 2, 3 * SCAN_CHUNK + 40, 1, Fraction(1, 10**30)),  # x^(k-1)
        (2, 2, 500, 500 + 5 * (3 * SCAN_CHUNK), 5, Fraction(1, 2)),  # balls holding 0
        (2, 3, 2, 3 * (2 * SCAN_CHUNK + 9), 3, Fraction(1, 2)),
        (2, 1, 100, 100 + 7 * (2 * SCAN_CHUNK + 3), 7, Fraction(1, 10**30)),  # x^(1/r)
        (3, 1, 2, 2 * SCAN_CHUNK + 5, 1, Fraction(1, 10**12)),
        (1, 2, 2, 900, 3, Fraction(1, 10**30)),  # x log x
    ],
)
def test_scan_rows_are_count_record_rows(r, k, x_min, x_max, step, precision):
    # a scan's shared row_scale and count_range counts give, across chunk
    # boundaries, the rows of count_record with its own count and scale
    out = io.StringIO()
    records_to_csv(scan_rows(r, k, x_min, x_max, step=step, precision=precision), out)
    records = [count_record(CountParams(r=r, k=k, x=x), precision)
               for x in range(x_min, x_max + 1, step)]
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(record_fields(rec)) for rec in records]
    assert out.getvalue() == "\n".join(lines) + "\n"
    scanned = error_scan(r, k, x_min, x_max, step=step, precision=precision)
    assert list(scanned) == records
    if precision == Fraction(1, 2):
        assert sum(rec.error.lo < 0 < rec.error.hi for rec in records) > 10


class _WriteLog:
    """A text stream that keeps the text of each write call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def _csv_text(rows):
    return ",".join(CSV_COLUMNS) + "\n" + "".join(",".join(row) + "\n" for row in rows)


def test_csv_header_and_first_row_are_written_before_the_second_record_is_drawn():
    out = _WriteLog()
    first, *rest = scan_rows(2, 2, 2, 20)

    def records():
        yield first
        assert out.writes == [_csv_text([first])]
        yield from rest

    records_to_csv(records(), out)
    assert "".join(out.writes) == _csv_text([first, *rest])


def _json_text(rows):
    return json.dumps([dict(zip(CSV_COLUMNS, row)) for row in rows], indent=2) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 2, 300])
def test_json_records_are_json_dumps_of_the_list(rows):
    records = list(scan_rows(2, 2, 2, 1 + rows)) if rows else []
    out = _WriteLog()
    records_to_json(iter(records), out)
    assert len(records) == rows and "".join(out.writes) == _json_text(records)
    assert len(out.writes) <= -(-rows // 256) + 2


def test_json_first_record_is_written_before_the_second_is_drawn():
    out = _WriteLog()
    first, *rest = scan_rows(2, 2, 2, 20)

    def records():
        yield first
        assert out.writes == [_json_text([first]).removesuffix("\n]\n")]
        yield from rest

    records_to_json(records(), out)
    assert "".join(out.writes) == _json_text([first, *rest])


def test_csv_rows_are_written_in_blocks():
    rows = list(scan_rows(2, 2, 2, 1001))
    out = _WriteLog()
    records_to_csv(rows, out)
    assert "".join(out.writes) == _csv_text(rows)
    assert len(rows) == 1000 and len(out.writes) <= -(-1000 // 256) + 3


def test_identity_writes_its_first_line_before_the_second_value_is_checked(monkeypatch):
    from rfree import umbral

    out, identity_range = _WriteLog(), umbral.identity_range

    def checks(*args):
        checks = identity_range(*args)
        yield next(checks)
        assert out.writes == ["x=0 equal\n"]
        yield from checks

    monkeypatch.setattr(umbral, "identity_range", checks)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["identity", "--r", "2", "--k", "3", "--x-max", "20"]) == 0
    assert "".join(out.writes) == \
        "".join(f"x={x} equal\n" for x in range(21)) + "checked 21 values, 0 mismatches\n"


def test_identity_lines_are_written_in_blocks(monkeypatch):
    out = _WriteLog()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["identity", "--r", "2", "--k", "3", "--x-max", "6000"]) == 0
    lines = "".join(out.writes).splitlines()
    assert lines == [f"x={x} equal" for x in range(6001)] + ["checked 6001 values, 0 mismatches"]
    assert len(out.writes) <= -(-6002 // 256) + 2


def test_witness_lines_are_written_in_blocks(monkeypatch):
    out = _WriteLog()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["witness", "--large", "--r", "2", "--k", "2", "--count", "800"]) == 0
    lines = "".join(out.writes).splitlines()
    assert len(lines) == 6 * 800 and lines.count("verdict = negative") == 800
    assert out.writes[0] == "x = 11\n" and len(out.writes) <= -(-4800 // 256) + 2


def test_identity_mismatch_written_in_blocks_keeps_its_line_and_status(monkeypatch):
    from rfree import lattice

    original = lattice.count_progression

    def off_by_one(r, k, xs):
        return [V + (x == 500) for x, V in zip(xs, original(r, k, xs))]

    monkeypatch.setattr(lattice, "count_progression", off_by_one)
    out = _WriteLog()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["identity", "--r", "2", "--k", "2", "--x-max", "600"]) == 1
    lines = "".join(out.writes).splitlines()
    assert len(lines) == 602 and lines[-1] == "checked 601 values, 1 mismatches"
    assert [line for line in lines if "MISMATCH" in line] == [lines[500]]
    assert lines[500].startswith("x=500 MISMATCH umbral=")
    assert len(out.writes) <= -(-602 // 256) + 2


def test_csv_rows_drawn_before_an_exception_are_written():
    rows = list(scan_rows(2, 2, 2, 11))

    def failing():
        yield from rows
        raise InvariantViolationError("row 11")

    out = _WriteLog()
    with pytest.raises(InvariantViolationError, match="row 11"):
        records_to_csv(failing(), out)
    assert len(rows) == 10 and "".join(out.writes) == _csv_text(rows)

