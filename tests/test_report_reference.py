"""report against the route it replaced, kept here as the reference:
csv.reader, four Decimals per row and a fold of abs() and max() in
Decimal's default context. Both read the same text as report reads stdin
(lines split at LF only, so a CR stays on its line), and must print the
same stdout and stderr and exit with the same status."""

import contextlib
import csv
import io
import sys
from decimal import Context, Decimal, DecimalException, localcontext

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rfree.cli import CSV_COLUMNS, main
from rfree.errors import EmptyWindowError

HEADER = ",".join(CSV_COLUMNS)


def _reference_rows(lines):
    # parse_scan_csv before rows were split at commas
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected scan header {header!r}")
    for row in reader:
        if not row:
            continue
        try:
            x, V, main_term, error, normalized, density = row
            decimals = Decimal(main_term), Decimal(error), Decimal(normalized), Decimal(density)
            if not all(map(Decimal.is_finite, decimals)):
                raise ValueError
            parsed = (int(x), int(V), *decimals)
        except (DecimalException, ValueError):
            raise ValueError(
                f"scan CSV line {reader.line_num} is not six finite numbers: {','.join(row)!r}"
            ) from None
        yield parsed


def _reference_report(text, split, min_ratio):
    """(stdout, stderr, exit status) of the old report on ``text``."""
    with localcontext(Context()):  # Decimal's default context, as in a fresh process
        try:
            max_early = max_late = None
            for x, _, _, _, normalized, _ in _reference_rows(io.StringIO(text, newline="\n")):
                v = abs(normalized)
                if x < split:
                    max_early = v if max_early is None else max(max_early, v)
                else:
                    max_late = v if max_late is None else max(max_late, v)
            if max_early is None or max_late is None:
                raise EmptyWindowError("both scan windows must be nonempty")
            with localcontext() as ctx:
                ctx.prec = 40
                if max_late == 0:
                    ratio = Decimal(0) if max_early else Decimal(1)
                elif max_early == 0:
                    ratio = Decimal("Infinity")
                else:
                    ratio = max_late / max_early
        except EmptyWindowError as exc:
            return "", f"error: {exc}\n", 1
        except ValueError as exc:
            return "", f"error: {exc}\n", 2
    out = f"split = {split}\nmax_early = {max_early}\nmax_late = {max_late}\nratio = {ratio}\n"
    if min_ratio is not None and ratio < Decimal(str(min_ratio)):
        return out, f"ratio below threshold {min_ratio}\n", 1
    return out, "", 0


def _report(text, split, min_ratio=None):
    """(stdout, stderr, exit status) of report reading ``text`` on stdin."""
    argv = ["report", "--split", str(split)]
    if min_ratio is not None:
        argv += ["--min-ratio", str(min_ratio)]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    # sys.stdin's own newline handling on POSIX: lines end at LF, CRs are kept
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="\n")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return out.getvalue(), err.getvalue(), code


_digits = st.text("0123456789", min_size=1, max_size=40)
_fixed = st.builds(lambda sign, whole, frac: f"{sign}{whole}.{frac}",
                   st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=3),
                   _digits)
_decimal = st.one_of(
    _fixed,  # as scan writes them, often past 28 significant digits
    st.sampled_from(["2.5", "2.50", "-2.500", "-0.0", "0", "0.000", "1e5", "2.5E-3", "-7e+2",
                     " 1.5", "1.5 ", "1_0.5", ".5", "5.", "+3"]),
    st.builds(lambda m, e: f"{m}e{e}", _fixed, st.integers(-60, 60)),
)
_not_finite = st.sampled_from(["NaN", "inf", "-Infinity", "abc", "", "1.0.0", "--1", "1e", "0x10",
                               "2.0"])
_x = st.one_of(st.integers(1, 12).map(str), st.sampled_from([" 7", "+3", "05", "1_1"]))
_v = st.one_of(st.integers(-50, 50).map(str), st.sampled_from(["1_000", " 8"]))
_good_row = st.tuples(_x, _v, _decimal, _decimal, _decimal, _decimal).map(",".join)
_bad_row = st.one_of(
    # one field replaced by text that is not a finite number
    st.tuples(_good_row, st.integers(0, 5), _not_finite).map(
        lambda t: ",".join(f if i != t[1] else t[2] for i, f in enumerate(t[0].split(",")))),
    st.lists(_decimal, min_size=1, max_size=8).map(",".join),  # too few or too many fields
)
_bad_header = st.sampled_from(["", "x,V", HEADER + ",extra", " " + HEADER])


@st.composite
def _scan_csv(draw):
    # mostly well-formed, so that most examples print a report
    weighted = st.integers(0, 19)
    lines = [draw(_bad_header) if draw(weighted) == 0 else HEADER]
    for _ in range(draw(st.integers(0, 14))):
        pick = draw(weighted)
        lines.append("" if pick == 0 else draw(_bad_row) if pick == 1 else draw(_good_row))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):  # the last line without its newline
        text = text.rstrip("\r\n")
    return text


def _rows(*normalized):
    return HEADER + "\n" + "".join(f"{x},1,1.0,1.0,{v},0.5\n" for x, v in normalized)


@settings(max_examples=500, deadline=None)
@given(text=_scan_csv(), split=st.integers(2, 12),
       min_ratio=st.sampled_from([None, 0.5, 1.0, 2.0]))
@example(text=_rows((1, "2.5"), (2, "2.50"), (9, "2.50"), (10, "2.5")), split=5, min_ratio=None)
@example(text=_rows((1, "-0.0"), (9, "-0.00")), split=5, min_ratio=None)
@example(text=_rows((1, "1.23456789012345678901234567890"), (2, "1.234567890123456789012345679"),
                    (9, "9.99999999999999999999999999951")), split=5, min_ratio=None)
@example(text=_rows((1, "1.0000000000000000000000001"), (2, "-1.0000000000000000000000002"),
                    (9, "7")), split=5, min_ratio=None)  # one float, two Decimals
@example(text=_rows((1, "4"), (9, "1e1")).replace("\n", "\r\n"), split=5, min_ratio=1.0)
@example(text=_rows((1, "4"), (9, "2")).rstrip("\n"), split=5, min_ratio=None)
@example(text=_rows((1, "4"), (3, "NaN"), (9, "2")), split=5, min_ratio=None)
@example(text=_rows((1, "4"), (5, "3"), (9, "2")), split=5, min_ratio=None)  # x at the split
@example(text=HEADER + "\n1,1,1.0,1.0,2.5,0.5,7\n", split=5, min_ratio=None)
@example(text=HEADER + "\n\n1,1,1.0,1.0,2.5,0.5\n\r\n9,1,1.0,1.0,2.5,0.5", split=5, min_ratio=None)
def test_report_prints_what_the_csv_reader_route_printed(text, split, min_ratio):
    try:
        expected = _reference_report(text, split, min_ratio)
    except (ArithmeticError, csv.Error):  # the old route's tracebacks
        assume(False)
    assert _report(text, split, min_ratio) == expected


def test_report_rejects_a_quoted_row():
    # scan never quotes a field; csv.reader read this row, the split rows do not
    row = '9,1,"1.0",1.0,2.5,0.5'
    text = _rows((1, "2.5")) + row + "\n"
    assert _reference_report(text, 5, None)[2] == 0
    assert _report(text, 5) == (
        "", f"error: scan CSV line 3 is not six finite numbers: {row!r}\n", 2)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_report_input_file_reads_as_stdin(tmp_path, newline):
    # --input opens the file with universal newlines; stdin keeps each CR
    text = _rows((1, "4"), (3, "-5.5"), (9, "2.75"))
    path = tmp_path / "scan.csv"
    path.write_bytes(text.replace("\n", newline).encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--split", "5", "--input", str(path)])
    assert (out.getvalue(), err.getvalue(), code) == _reference_report(text, 5, None)
    assert _report(text.replace("\n", newline), 5) == (out.getvalue(), "", 0)
