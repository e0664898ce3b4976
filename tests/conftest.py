import json
import pathlib
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from rfree import arith

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures.json"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-fixtures",
        action="store_true",
        default=False,
        help="recompute recorded scan maxima and thresholds instead of "
        "regression-checking them",
    )


class FixtureStore:
    """Recorded maxima/thresholds from the first validated run.

    In normal runs ``check`` compares an observed value against the recorded
    one within a relative tolerance, and ``threshold`` returns a recorded
    floor. With --regen-fixtures observed values are recorded instead.
    """

    def __init__(self, data: dict, regen: bool):
        self.data = data
        self.regen = regen

    @staticmethod
    def _to_fraction(value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, Decimal):
            return Fraction(value)
        return Fraction(Decimal(str(value))) if "." in str(value) or "E" in str(value).upper() else Fraction(str(value))

    def record(self, key: str, value) -> None:
        frac = self._to_fraction(value)
        with localcontext() as ctx:
            ctx.prec = 25
            self.data[key] = str(
                Decimal(frac.numerator) / Decimal(frac.denominator)
            )

    def check(self, key: str, observed, rel_tol: Fraction = Fraction(1, 100)) -> None:
        obs = self._to_fraction(observed)
        if self.regen:
            self.record(key, obs)
            return
        if key not in self.data:
            pytest.fail(
                f"fixture {key!r} missing; run pytest --regen-fixtures once"
            )
        recorded = self._to_fraction(self.data[key])
        scale = abs(recorded) if recorded else Fraction(1)
        assert abs(obs - recorded) <= rel_tol * scale, (
            f"{key}: observed {float(obs):.6g} deviates more than "
            f"{float(rel_tol):.0%} from recorded {float(recorded):.6g}"
        )

    def threshold(self, key: str) -> Fraction:
        if self.regen:
            return Fraction(0)
        if key not in self.data:
            pytest.fail(
                f"fixture {key!r} missing; run pytest --regen-fixtures once"
            )
        return self._to_fraction(self.data[key])

    def record_threshold(self, key: str, value: Fraction) -> None:
        if self.regen:
            self.record(key, value)


@pytest.fixture(scope="session")
def fixture_store(request):
    regen = request.config.getoption("--regen-fixtures")
    data = {}
    if FIXTURE_PATH.exists():
        data = json.loads(FIXTURE_PATH.read_text())
    store = FixtureStore(data, regen)
    yield store
    if regen:
        FIXTURE_PATH.write_text(
            json.dumps(store.data, indent=2, sort_keys=True) + "\n"
        )


@pytest.fixture(autouse=True)
def empty_mobius_table(monkeypatch):
    """Each test starts from an empty process table, so a test that counts
    sieves, or asserts that none happens before a check, sees every one."""
    monkeypatch.setattr(arith, "_table", arith.MobiusTable(limit=0, mu=[0]))
