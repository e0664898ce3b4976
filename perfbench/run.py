"""rfree's benchmark: fresh CLI runs in a closed loop, checked outputs,
end-to-end metrics, and a traced pass for per-layer metrics.

    python3 perfbench/run.py --workload scan-r2k2 --seed 1 --seconds 55 --trace 0

One client runs one pass at a time for ``--seconds`` (at least one pass; a
pass that would not end in time is not started). A pass is a fixed sequence of ``rfree`` CLI processes,
each a fresh interpreter, because ``zeta_value`` and the Bernoulli table
are process-wide caches that every CLI call pays for again. Every process
is timed from outside; CPU time and peak RSS come from ``os.wait4``, which
folds in the process's own pool workers. Outputs are checked outside the
timed section; any miss makes the last line report ``"correct": false``
and the exit status 1.

With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics (medians over traced passes) are reported instead. See NOTES.md
for the workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
BENCHMARK = ROOT / "BENCHMARK.json"

CLI_ENTRY = "import sys; from rfree.cli import main; sys.exit(main())"


# ---------------------------------------------------------------------------
# Running CLI processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    """One finished rfree process."""

    args: list[str]
    stdout: bytes
    start: float  # perf_counter readings around the process's lifetime
    end: float
    first_line_s: float | None  # spawn to the first data line, if counted
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str
    summary: dict | None = None  # tracer summary of a traced process


@dataclass
class Pass:
    """The processes of one pass and its end-to-end figures."""

    procs: list[Proc] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return sum(p.first_line_s for p in self.procs if p.first_line_s is not None)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)

    def extend(self, procs: list[Proc], wall_s: float) -> None:
        self.procs += procs
        self.wall_s += wall_s


def first_data_line(args: list[str]) -> int | None:
    """Newline count that completes the first data row or verdict:
    scan prints a header first; report's output is not a data row."""
    return {"scan": 2, "report": None}.get(args[0], 1)


class Runner:
    """Starts rfree processes from the checkout's ``src`` and reaps them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("RFREE_")}
        self.env["PYTHONPATH"] = str(SRC)
        self._serial = 0

    def _path(self, stem: str) -> Path:
        self._serial += 1
        return self.workdir / f"{stem}-{self._serial}"

    def _spawn(self, args, traced, stdin, stdout):
        summary = self._path("trace") if traced else None
        if traced:
            cmd = [sys.executable, "-u", str(HERE / "traced_cli.py"), str(summary), *args]
        else:
            cmd = [sys.executable, "-u", "-c", CLI_ENTRY, *args]
        usage = self._path("usage")
        err_path = self._path("stderr")
        with open(err_path, "wb") as err:
            popen = subprocess.Popen(
                [sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(usage), *cmd],
                stdin=stdin, stdout=stdout, stderr=err, env=self.env, cwd=ROOT)
        return popen, usage, err_path, summary

    def _reap(self, spawned, args, stdout: bytes, first_at) -> Proc:
        popen, usage_path, err_path, summary = spawned
        popen.wait()
        stderr = err_path.read_text(errors="replace")
        err_path.unlink()
        if not usage_path.exists():
            raise RuntimeError(f"spawn.py exited {popen.returncode}: {stderr[-300:]}")
        usage = json.loads(usage_path.read_text())
        usage_path.unlink()
        loaded = None
        if summary is not None and summary.exists():
            loaded = json.loads(summary.read_text())
            summary.unlink()
        return Proc(
            args=args,
            stdout=stdout,
            start=usage["start"],
            end=usage["end"],
            first_line_s=None if first_at is None else first_at - usage["start"],
            cpu_s=usage["cpu_s"],
            rss_mb=usage["maxrss_kb"] / 1024,
            returncode=usage["returncode"],
            stderr=stderr,
            summary=loaded,
        )

    def pipeline(self, head: list[str], then: list[str] | None = None,
                 traced: bool = False, stdin: bytes | None = None) -> tuple[list[Proc], float]:
        """Run ``head`` (fed ``stdin``, if given) and return its processes and
        wall time. Its stdout is read here, the first data line timestamped on
        arrival, and forwarded to the stdin of ``then``, which runs
        concurrently like the right-hand side of a shell pipe."""
        in_file = None
        if stdin is not None:
            in_path = self._path("stdin")
            in_path.write_bytes(stdin)
            in_file = open(in_path, "rb")
            in_path.unlink()
        try:
            spawned = self._spawn(head, traced, in_file, subprocess.PIPE)
        finally:
            if in_file is not None:
                in_file.close()
        if then is not None:
            out_path = self._path("stdout")
            with open(out_path, "wb") as out:
                spawned_then = self._spawn(then, traced, subprocess.PIPE, out)
            forward = spawned_then[0].stdin
        want = first_data_line(head)
        first_at = None
        data = bytearray()
        try:
            while chunk := os.read(spawned[0].stdout.fileno(), 1 << 16):
                data += chunk
                if first_at is None and want is not None and data.count(b"\n") >= want:
                    first_at = time.perf_counter()
                if then is not None and forward is not None:
                    try:
                        forward.write(chunk)
                        forward.flush()
                    except BrokenPipeError:
                        forward = None
        except BaseException:
            # Closing the pipes ends both commands (EPIPE, EOF); wait for them.
            for popen in [spawned[0]] + ([spawned_then[0]] if then is not None else []):
                for pipe in (popen.stdin, popen.stdout):
                    if pipe is not None:
                        pipe.close()
                popen.wait()
            raise
        spawned[0].stdout.close()
        procs = [self._reap(spawned, head, bytes(data), first_at)]
        if then is not None:
            try:
                spawned_then[0].stdin.close()
            except BrokenPipeError:
                pass
            proc = self._reap(spawned_then, then, b"", None)
            proc.stdout = out_path.read_bytes()
            out_path.unlink()
            procs.append(proc)
        return procs, max(p.end for p in procs) - min(p.start for p in procs)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# m must be coprime to every prime below 100; each of these gives a
# negative verdict at cutoff 1000 (checked on every pass).
SMALL_WITNESS_M = [1, 101, 103, 107, 109, 113, 127, 131, 137, 139]


class Workload:
    """Inputs derived from the seed, the CLI stages of one pass, and the
    checks of its outputs. ``check`` compares every output with the first
    one seen for the same stage, which is checked in full."""

    name = ""
    items = 0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sample = seed
        self.reference: dict[str, bytes] = {}

    def stages(self) -> list[tuple[list[str], list[str] | None]]:
        """The (command, piped-into command) pairs of one pass, in order."""
        raise NotImplementedError

    def run(self, runner: Runner, traced: bool = False) -> Pass:
        result = Pass()
        for head, then in self.stages():
            result.extend(*runner.pipeline(head, then, traced))
        return result

    def check(self, log, result: Pass) -> None:
        for proc in result.procs:
            what = " ".join(proc.args)
            if not log.check(proc.returncode == 0,
                             f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"):
                continue
            key = self.reference_key(proc.args)
            if key not in self.reference:
                self.reference[key] = proc.stdout
                self.check_output(log, proc)
            checks.check_digest(log, checks.digest(proc.stdout),
                                checks.digest(self.reference[key]), what)
        self.check_sample(log)
        self.sample += 1

    @staticmethod
    def reference_key(args: list[str]) -> str:
        # Output must not depend on the worker count.
        args = list(args)
        if "--workers" in args:
            i = args.index("--workers")
            del args[i : i + 2]
        return " ".join(args)

    def check_output(self, log, proc: Proc) -> None:
        raise NotImplementedError

    def check_sample(self, log) -> None:
        pass


class ScanR2K2(Workload):
    """The non-decay scan as users run it: 10,001 contiguous rows near
    x = 1e6 on the default pool path, piped into ``report``."""

    name = "scan-r2k2"
    r, k = 2, 2

    def __init__(self, seed: int):
        super().__init__(seed)
        start = 990_000 + self.rng.randrange(10_000)
        self.xs = list(range(start, start + 10_000 + 1))
        self.split = start + 5_000
        self.items = len(self.xs)

    def scan_args(self, workers: int) -> list[str]:
        return ["scan", "--r", str(self.r), "--k", str(self.k),
                "--x-min", str(self.xs[0]), "--x-max", str(self.xs[-1]),
                "--step", "1", "--workers", str(workers)]

    def report_args(self) -> list[str]:
        return ["report", "--split", str(self.split)]

    def stages(self):
        return [(self.scan_args(2), self.report_args())]

    def run_sequential(self, runner: Runner, traced: bool) -> Pass:
        """scan on one worker, then report on its captured output, so that
        no time spent waiting on the pipe is charged to report's parsing."""
        result = Pass()
        scan, wall = runner.pipeline(self.scan_args(1), traced=traced)
        result.extend(scan, wall)
        result.extend(*runner.pipeline(self.report_args(), traced=traced, stdin=scan[0].stdout))
        return result

    def check_output(self, log, proc: Proc) -> None:
        text = proc.stdout.decode()
        if proc.args[0] != "scan":
            checks.check_report(log, text, self.rows, self.split)
            return
        self.rows = checks.check_scan(log, text, self.r, self.k, self.xs)
        # V of every row by the umbral route (Bernoulli partial sums).
        from rfree.arith import sieve_mobius

        table = sieve_mobius(checks.integer_root(self.xs[-1], self.r))
        for row in self.rows:
            checks.check_umbral(log, row, self.r, self.k, table)


class Certify(Workload):
    """The exact certificates: two identity ranges, large and small
    witnesses, and a 900-digit zeta(4)."""

    name = "certify"
    LARGE_COUNT = 800
    SMALL_CUTOFF = 1000
    ZETA_PLACES = 900

    def __init__(self, seed: int):
        super().__init__(seed)
        lo = self.rng.randrange(50)
        self.identity_23 = (lo, lo + 6_000)
        self.identity_14 = (0, 600)
        self.m = self.rng.choice(SMALL_WITNESS_M)
        self.items = (
            self.identity_23[1] - self.identity_23[0] + 1
            + self.identity_14[1] - self.identity_14[0] + 1
            + self.LARGE_COUNT + 1 + 1
        )

    def stages(self):
        (a, b), (c, d) = self.identity_23, self.identity_14
        commands = [
            ["identity", "--r", "2", "--k", "3", "--x-min", str(a), "--x-max", str(b)],
            ["identity", "--r", "1", "--k", "4", "--x-min", str(c), "--x-max", str(d)],
            ["witness", "--large", "--r", "2", "--k", "2", "--count", str(self.LARGE_COUNT)],
            ["witness", "--small", "--r", "2", "--m", str(self.m),
             "--cutoff", str(self.SMALL_CUTOFF)],
            ["zeta", "--s", "4", "--precision", f"1e-{self.ZETA_PLACES}"],
        ]
        return [(args, None) for args in commands]

    def check_output(self, log, proc: Proc) -> None:
        text = proc.stdout.decode()
        args = proc.args
        if args[0] == "identity":
            lo, hi = self.identity_23 if args[2] == "2" else self.identity_14
            checks.check_identity(log, text, lo, hi)
        elif args[0] == "zeta":
            checks.check_zeta4(log, text, self.ZETA_PLACES)
        elif "--large" in args:
            self.large = checks.check_witness(
                log, text, checks.large_witnesses(2, self.LARGE_COUNT))
        else:
            for report in checks.check_witness(log, text, [checks.small_witness(2, self.m)]):
                checks.check_witness_sum(log, report, 2, 1, self.SMALL_CUTOFF)

    def check_sample(self, log) -> None:
        # One large witness (rotating with the pass) recomputed exactly.
        if getattr(self, "large", None):
            report = self.large[self.sample % len(self.large)]
            checks.check_witness_sum(log, report, 2, 2, None)


WORKLOADS = {w.name: w for w in (ScanR2K2, Certify)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Per-layer metrics: self time and calls of each traced boundary, plus the
# counters below. Units follow the suffix.
LAYER_TIMES = [
    "arith.sieve_mobius", "arith.zeta_value", "lattice.count_fast",
    "lattice.count_record", "jordan.partial_sum_bernoulli", "umbral.umbral_eval",
    "umbral.identity_check", "omega.truncated_frac_sum", "omega.certify_witness",
    "omega.error_scan", "omega.omega_ratio_report", "cli.main", "cli.record_fields",
    "cli.records_to_csv", "cli.parse_scan_csv",
]
LAYER_CALLS = [
    "arith.sieve_mobius", "arith.zeta_value", "lattice.count_fast",
    "lattice.count_record", "jordan.partial_sum_bernoulli", "umbral.identity_check",
    "omega.truncated_frac_sum", "omega.certify_witness", "cli.record_fields",
]
LAYER_OTHER = {
    "arith.sieve_mobius.entries": "count",
    "arith.sieve_mobius.peak_bytes": "B",
    "umbral.identity_check.equal_ratio": "ratio",
    "omega.certify_witness.negative_ratio": "ratio",
    "omega.error_scan.first_record_s": "s",
    "omega.error_scan.wait_s": "s",
    "omega.error_scan.chunks": "count",
    "cli.bytes_out": "B",
    "startup.interpreter_s": "s",
    "startup.import_s": "s",
    "startup.exit_s": "s",
    "trace.wall_s": "s",
    "trace.own_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.self_s": "s" for n in LAYER_TIMES}
    units.update({f"{n}.calls": "count" for n in LAYER_CALLS})
    units.update(LAYER_OTHER)
    return units


def merge_summaries(procs: list[Proc]) -> dict:
    """Sum the tracer summaries of a pass's processes (peaks: maximum)."""
    merged = {"self_s": {}, "calls": {}, "sums": {}, "peaks": {}, "first_item_s": {}}
    for proc in procs:
        summary = proc.summary or {}
        for key in ("self_s", "calls", "sums"):
            for name, value in summary.get(key, {}).items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in summary.get("peaks", {}).items():
            merged["peaks"][name] = max(merged["peaks"].get(name, 0), value)
        for name, values in summary.get("first_item_s", {}).items():
            merged["first_item_s"].setdefault(name, []).extend(values)
    return merged


def layer_metrics(traced: Pass, pool: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass; ``pool`` is the traced pass at
    the workload's own worker count, which supplies the parent-side pool
    figures of error_scan (the same pass when there is no pool)."""
    s = merge_summaries(traced.procs)
    p = merge_summaries(pool.procs)
    calls, sums = s["calls"], s["sums"]
    # Outside every span: interpreter start-up before the launcher's first
    # line, interpreter exit after the summary is written, and the tracer's
    # own imports and summary, which are not the program's time.
    summaries = [(proc, proc.summary) for proc in traced.procs if proc.summary]
    boot = sum(summary["start"] - proc.start for proc, summary in summaries)
    exit_s = sum(proc.end - summary["end"] for proc, summary in summaries)
    own = sum(summary["own_s"] for _, summary in summaries)

    def ratio(counter: str, fn: str) -> float:
        return sums.get(counter, 0) / calls[fn] if calls.get(fn) else 0.0

    out = {f"{n}.self_s": s["self_s"].get(n, 0.0) for n in LAYER_TIMES}
    out.update({f"{n}.calls": calls.get(n, 0) for n in LAYER_CALLS})
    first = p["first_item_s"].get("omega.error_scan", [])
    out.update({
        "arith.sieve_mobius.entries": sums.get("arith.sieve_mobius.entries", 0),
        "arith.sieve_mobius.peak_bytes": s["peaks"].get("arith.sieve_mobius.peak_bytes", 0),
        "umbral.identity_check.equal_ratio": ratio("umbral.identity_check.equal", "umbral.identity_check"),
        "omega.certify_witness.negative_ratio": ratio("omega.certify_witness.negative", "omega.certify_witness"),
        "omega.error_scan.first_record_s": first[0] if first else 0.0,
        "omega.error_scan.wait_s": p["self_s"].get("omega.error_scan.wait", 0.0),
        "omega.error_scan.chunks": p["sums"].get("omega.error_scan.wait.items", 0),
        "cli.bytes_out": sum(len(proc.stdout) for proc in traced.procs),
        "startup.interpreter_s": boot,
        "startup.import_s": s["self_s"].get("startup.import", 0.0),
        "startup.exit_s": exit_s,
        "trace.wall_s": traced.wall_s,
        "trace.own_s": own,
        "trace.accounted_ratio": (sum(s["self_s"].values()) + boot + exit_s) / (traced.wall_s - own),
    })
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(passes: list[Pass], items: int, log) -> dict[str, list[float]]:
    samples = {
        "wall_s": [p.wall_s for p in passes],
        "items_per_s": [items / p.wall_s for p in passes],
        "setup_s": [p.setup_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    samples["pass_ratio"] = [1 - log.failed / log.attempted]
    return samples


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def measure(workload: Workload, runner: Runner, seconds: float, trace: bool, log):
    """Closed loop of passes for ``seconds``; returns name -> samples."""
    # Untimed: compile bytecode and warm the file cache; on scan-r2k2 the
    # single-worker reference output that every pooled pass must match.
    warm, _ = runner.pipeline(["zeta", "--s", "2"])
    log.check(warm[0].returncode == 0, f"warm-up exited {warm[0].returncode}: {warm[0].stderr[-300:]}")
    if isinstance(workload, ScanR2K2):
        workload.check(log, Pass(*runner.pipeline(workload.scan_args(1))))
    plain: list[Pass] = []
    traced_layers: list[dict[str, float]] = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    last = 0.0  # duration of the latest cycle of passes and checks
    while not plain or time.perf_counter() - start + last < seconds:
        began = time.perf_counter()
        result = workload.run(runner)
        workload.check(log, result)
        plain.append(result)
        if trace:
            if isinstance(workload, ScanR2K2):
                layers = workload.run_sequential(runner, traced=True)
                workload.check(log, layers)
                pool = workload.run(runner, traced=True)
                workload.check(log, pool)
            else:
                layers = pool = workload.run(runner, traced=True)
                workload.check(log, layers)
            traced_layers.append(layer_metrics(layers, pool))
            traced_walls.append(pool.wall_s)
        last = time.perf_counter() - began
    samples = end_to_end(plain, workload.items, log)
    if not trace:
        return samples, len(plain)
    layer_samples = {name: [m[name] for m in traced_layers] for name in traced_layers[0]}
    overhead = statistics.median(traced_walls) - statistics.median(samples["wall_s"])
    layer_samples["trace.overhead_s"] = [overhead]
    return layer_samples, len(traced_layers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rfree" / "cli.py").is_file():
        print(f"error: no rfree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    log = checks.CheckLog()
    WORKDIR.mkdir(exist_ok=True)
    try:
        samples, count = measure(workload, Runner(WORKDIR), args.seconds, bool(args.trace), log)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name} = {median:.6g} {unit}  (median of {len(samples[name])}; "
              f"quartiles {q1:.6g} .. {q3:.6g})")
    for message in log.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {count} passes, {log.attempted} checks, {log.failed} failed")
    correct = log.failed == 0
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
