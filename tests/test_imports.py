"""Each CLI subcommand loads only the rfree modules it runs, the package's
public names load their module on first use, and the names the benchmark
harness wraps exist."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import rfree

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _fresh(code: str) -> str:
    # -S: no site hooks, which could import modules themselves
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout.decode()


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('rfree.'))))"


def test_importing_the_cli_loads_no_computing_module():
    assert _fresh("import sys, rfree.cli; " + LOADED).split() == ["rfree.cli", "rfree.errors"]


@pytest.mark.parametrize(
    "argv,modules",
    [
        ("zeta --s 4", "arith"),
        ("count --r 2 --k 2 --x 10", "arith lattice"),
        ("jordan --n 12 --r 1 --k 2", "arith jordan"),
        ("partial-sum --x 10 --r 1 --k 2", "arith jordan"),
        ("witness --large --r 2 --k 2 --count 2", "arith omega"),
        ("scan --r 2 --k 2 --x-min 2 --x-max 3", "arith lattice"),
        ("identity --r 2 --k 2 --x-max 3", "arith jordan lattice umbral"),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, modules):
    code = ("import io, sys, contextlib, rfree.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert rfree.cli.main({argv.split()!r}) == 0\n" + LOADED)
    expected = sorted(["rfree.cli", "rfree.errors", *(f"rfree.{m}" for m in modules.split())])
    assert _fresh(code).split() == expected


def test_report_loads_no_lattice():
    code = ("import io, sys, contextlib, rfree.cli\n"
            "sys.stdin = io.StringIO('x,V,main_term,error,normalized_error,density\\n'\n"
            "                        '2,8,1.0,1.0,1.0,1.0\\n3,8,1.0,1.0,2.0,1.0\\n')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert rfree.cli.main(['report', '--split', '3']) == 0\n" + LOADED)
    assert _fresh(code).split() == ["rfree.cli", "rfree.errors"]


def test_public_names_are_their_modules_objects():
    for name in rfree.__all__:
        value = getattr(rfree, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
        assert home.__name__.startswith("rfree.")
    assert set(dir(rfree)) >= set(rfree.__all__)
    with pytest.raises(AttributeError):
        rfree.no_such_name


def test_jordan_names_the_function_after_its_module_loads():
    # loading rfree.jordan (here through rfree.umbral) binds the submodule on
    # the package unless the package keeps the function's name
    code = ("import sys, rfree.umbral\n"
            "from rfree import jordan\n"
            "import rfree\n"
            "print(callable(jordan), jordan is sys.modules['rfree.jordan'].jordan, rfree.jordan is jordan)")
    assert _fresh(code) == "True True True\n"


def test_every_name_the_benchmark_wraps_exists():
    # perfbench/layers.py's BOUNDARIES, read without importing perfbench: a
    # deleted or renamed name fails here, not in a traced benchmark run
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    (boundaries,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]]
    pairs = ast.literal_eval(boundaries)
    assert pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(f"rfree.{module}"), name, None)), (
            module, name)


def test_only_arith_sieves_mu():
    # every other module gets its table from arith.mobius_table
    for path in sorted((SRC / "rfree").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert path.stem == "arith" or "sieve_mobius" not in names, path.name


def test_only_arith_takes_a_table():
    # mu up to n is a function of n, which arith.mobius_table serves; the one
    # other function taking a table is umbral_eval, to which perfbench's
    # umbral check passes its own
    takers = {name for name, args in _parameters()
              if "table" in args and not name.startswith("arith.")}
    assert takers == {"umbral.umbral_eval"}


def _parameters():
    # (module.function, [parameter names]) of every function and method in src/rfree
    for path in sorted((SRC / "rfree").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                yield f"{path.stem}.{getattr(node, 'name', '<lambda>')}", [p.arg for p in params]


def test_derived_inputs_are_read_where_they_are_used():
    # zeta(s), mu, the row scale and the Faulhaber vector are functions of their
    # arguments, read by the functions that use them; count_rows alone takes a
    # scale, so that a test can pass it a hand-built one
    params = dict(_parameters())
    assert not [name for name, args in params.items() if {"zeta", "mu"} & set(args)]
    assert [name for name, args in params.items() if "scale" in args] == ["lattice.count_rows"]
    assert params["arith.faulhaber_vector"] == ["k"]
