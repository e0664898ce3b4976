"""The record and parameter types are immutable tuples: no field can be
set, their checks raise the same errors, and importing the CLI leaves the
dataclasses machinery out of the interpreter."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from rfree import (CountParams, Enclosure, FracSumParams, TotientParams, ZetaValue, certify_witness,
                   error_scan, identity_check, omega_ratio_report, sieve_mobius, zeta_value)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


RECORDS = {
    "MobiusTable": lambda: sieve_mobius(10),
    "Enclosure": lambda: Enclosure.between(Fraction(-1), Fraction(2)),
    "ZetaValue": lambda: zeta_value(4),
    "CountParams": lambda: CountParams(r=2, k=2, x=5),
    "TotientParams": lambda: TotientParams(r=2, k=0),
    "IdentityCheck": lambda: identity_check(2, 2, 5),
    "FracSumParams": lambda: FracSumParams(r=2, j=2, i=1, x=15),
    "WitnessReport": lambda: certify_witness(15, 2, 2),
    "OmegaRatioReport": lambda: omega_ratio_report(error_scan(2, 2, 2, 9), 5),
}


def test_importing_the_cli_leaves_dataclasses_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # -S: no site hooks, which could import dataclasses themselves
    code = "import sys, rfree.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_tuples(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name and isinstance(rec, tuple)
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None  # no instance dict either
    assert copy.deepcopy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: CountParams(r=0, k=1, x=0), "r must be >= 1"),
        (lambda: CountParams(r=1, k=0, x=0), "k must be >= 1"),
        (lambda: CountParams(1, 1, -1), "x must be >= 0"),
        (lambda: TotientParams(r=0, k=0), "r must be >= 1"),
        (lambda: TotientParams(1, -1), "k must be >= 0"),
        (lambda: FracSumParams(r=0, j=0, i=0, x=0), "r must be >= 1"),
        (lambda: FracSumParams(r=1, j=-1, i=0, x=0), "exponents must be >= 0"),
        (lambda: FracSumParams(r=1, j=0, i=-1, x=0), "exponents must be >= 0"),
        (lambda: FracSumParams(1, 0, 0, -1), "x must be >= 0"),
        (lambda: Enclosure(mid=Fraction(0), radius=Fraction(-1)), "negative enclosure radius -1"),
        (lambda: ZetaValue(mid=Fraction(1), radius=Fraction(-1, 2), s=2, depth=1),
         "negative enclosure radius -1/2"),
    ],
)
def test_record_checks_keep_their_errors(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_enclosures_are_keyword_only_and_zeta_values_are_enclosures():
    with pytest.raises(TypeError):
        Enclosure(Fraction(0), Fraction(1))
    with pytest.raises(TypeError):
        ZetaValue(Fraction(1), Fraction(0), 2, 1)
    z = zeta_value(4)
    assert isinstance(z, Enclosure) and Fraction(1082, 1000) < z.lo < z.hi < Fraction(1083, 1000)
    assert z.reciprocal() == Enclosure.between(1 / z.hi, 1 / z.lo)


def test_enclosures_have_no_tuple_arithmetic():
    a, z = Enclosure.between(Fraction(0), Fraction(1)), zeta_value(4)
    for op in (lambda: a + a, lambda: a + z, lambda: (0,) + a, lambda: 2 * z, lambda: a * 2):
        with pytest.raises(TypeError, match="no \\+ or \\*"):
            op()
