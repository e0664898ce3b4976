"""Tests of the benchmark's own code: span arithmetic, layer wrapping,
metric names and the output checks.

Run from the repository root: python -m pytest -q perfbench
"""

import contextlib
import io
import json
import re
import sys

import pytest

import checks
import layers
import run
from spans import Tracer, covered

sys.path.insert(0, str(run.SRC))

import rfree.cli  # noqa: E402
import rfree.lattice  # noqa: E402
import rfree.umbral  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert covered([], 0, 1) == 0


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    a = tracer.begin("a")
    clock.tick(1)
    b = tracer.begin("b")
    clock.tick(2)
    c = tracer.begin("c")
    clock.tick(4)
    tracer.end(c)
    tracer.end(b)
    clock.tick(8)
    b2 = tracer.begin("b")
    clock.tick(16)
    tracer.end(b2)
    tracer.end(a)
    assert tracer.self_times() == {"a": 9, "b": 18, "c": 4}


def test_generator_consumed_inside_a_renderer():
    # The shape of cli.records_to_csv(error_scan(...)): the scan generator
    # is created by the caller and resumed inside the renderer, which calls
    # record_fields on each item.
    clock = FakeClock()
    tracer = Tracer(clock)

    def count_record(x):
        clock.tick(100)
        return x

    def error_scan(xs):
        clock.tick(3)  # set-up before the first record
        for x in xs:
            clock.tick(10)
            yield count_record(x)
        clock.tick(5)  # after the last record

    def record_fields(rec):
        clock.tick(7)
        return str(rec)

    def records_to_csv(records):
        out = []
        clock.tick(1)
        for rec in records:
            clock.tick(2)
            out.append(record_fields(rec))
        return out

    count_record = tracer.wrap("count_record", count_record)
    error_scan = tracer.wrap("error_scan", error_scan)
    record_fields = tracer.wrap("record_fields", record_fields)
    records_to_csv = tracer.wrap("records_to_csv", records_to_csv)

    root = tracer.begin("main")
    records = error_scan([1, 2, 3])
    clock.tick(50)  # caller work between creating and consuming
    assert records_to_csv(records) == ["1", "2", "3"]
    tracer.end(root)

    assert tracer.self_times() == {
        "main": 50,
        "records_to_csv": 1 + 3 * 2,
        "error_scan": 3 + 3 * 10 + 5,
        "count_record": 300,
        "record_fields": 21,
    }
    assert tracer.calls["error_scan"] == 1
    assert tracer.sums["error_scan.items"] == 3
    # first record: created at t=0, first item ready after 50 + 1 + 3 + 10 + 100
    assert tracer.first_item_s["error_scan"] == [164]
    assert sum(tracer.self_times().values()) == clock.now


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.spans[0][2] is not None
    assert tracer.begin("next") == 1 and tracer.spans[1][3] is None


def _traced_cli(argv):
    tracer = Tracer()
    restore = layers.install(tracer)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = rfree.cli.main(argv)
    finally:
        restore()
    return tracer, status, out.getvalue()


def test_install_patches_every_namespace_and_restores():
    original = rfree.lattice.count_fast
    tracer, status, out = _traced_cli(["identity", "--r", "2", "--k", "2", "--x-max", "20"])
    assert status == 0
    # identity_check reaches the kernel through umbral's own binding.
    assert tracer.calls["lattice.count_fast"] == 21
    assert tracer.calls["umbral.identity_check"] == 21
    assert tracer.sums["umbral.identity_check.equal"] == 21
    assert rfree.umbral.count_fast is original and rfree.lattice.count_fast is original


def test_traced_scan_self_times_account_for_main():
    tracer, status, out = _traced_cli(
        ["scan", "--r", "2", "--k", "2", "--x-min", "1000", "--x-max", "1040", "--workers", "1"])
    assert status == 0 and len(out.splitlines()) == 42
    assert tracer.calls["lattice.count_record"] == 41
    assert tracer.calls["cli.record_fields"] == 41
    assert tracer.sums["omega.error_scan.items"] == 41
    (root,) = [s for s in tracer.spans if s[0] == "cli.main"]
    assert sum(tracer.self_times().values()) == pytest.approx(root[2] - root[1], abs=1e-9)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_match_the_pattern_and_the_code():
    bench = json.loads(run.BENCHMARK.read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def _small_scan_workload():
    work = run.ScanR2K2(seed=0)
    work.xs = list(range(1000, 1011))
    work.split = 1005
    return work


def _scan_proc(work, stdout):
    args = work.scan_args(1)
    return run.Proc(args=args, stdout=stdout, start=0.0, end=1.0, first_line_s=0.5,
                    cpu_s=1.0, rss_mb=20.0, returncode=0, stderr="")


def _scan_output(work):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert rfree.cli.main(work.scan_args(1)) == 0
    return out.getvalue().encode()


def test_checker_passes_a_correct_scan():
    work = _small_scan_workload()
    log = checks.CheckLog()
    good = _scan_output(work)
    for _ in range(2):
        work.check(log, run.Pass([_scan_proc(work, good)], 1.0))
    assert log.failed == 0 and log.attempted > 60, log.messages


@pytest.mark.parametrize("column", [1, 3, 5])
def test_checker_flags_a_corrupted_row(column):
    work = _small_scan_workload()
    lines = _scan_output(work).decode().splitlines()
    row = lines[4].split(",")
    digits = row[column]
    row[column] = digits[:-1] + str((int(digits[-1]) + 1) % 10)
    lines[4] = ",".join(row)
    log = checks.CheckLog()
    checks.check_scan(log, "\n".join(lines) + "\n", 2, 2, work.xs)
    assert log.failed >= 1


def test_checker_flags_a_changed_digest():
    work = _small_scan_workload()
    good = _scan_output(work)
    log = checks.CheckLog()
    work.check(log, run.Pass([_scan_proc(work, good)], 1.0))
    assert log.failed == 0
    work.check(log, run.Pass([_scan_proc(work, good + b"\n")], 1.0))
    assert log.failed == 1 and "digest" in log.messages[0]


def test_worker_count_does_not_split_the_reference():
    assert run.Workload.reference_key(["scan", "--r", "2", "--workers", "2"]) == \
        run.Workload.reference_key(["scan", "--r", "2", "--workers", "1"])


def test_witness_and_zeta_checks():
    log = checks.CheckLog()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rfree.cli.main(["witness", "--large", "--r", "2", "--k", "2", "--count", "3"])
    reports = checks.check_witness(log, out.getvalue(), checks.large_witnesses(2, 3))
    for report in reports:
        checks.check_witness_sum(log, report, 2, 2, None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rfree.cli.main(["zeta", "--s", "4", "--precision", "1e-60"])
    checks.check_zeta4(log, out.getvalue(), 60)
    assert log.failed == 0 and log.attempted == 12
    checks.check_zeta4(log, out.getvalue().replace("1.0823", "1.0824"), 60)
    assert log.failed == 1
