"""Source hygiene: no module of the package imports a name it never uses,
every name the package exports exists, numpy is loaded only by the sweep
fit, and multiprocessing only with a worker pool.

Built on ``ast`` alone, so it needs no linter.  ``__init__.py``
re-exports by design and is skipped, as is any import line marked
``# noqa: F401``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringdisperse
from ringdisperse.robots import max_label_bits
from ringdisperse.sweep import SweepRow, fit_rounds

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ringdisperse"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nfrom .verify import worker_count, map_jobs\nmap_jobs()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: worker_count"]
    assert unused_imports("import os  # noqa: F401\n") == []


def test_every_export_resolves():
    assert len(set(ringdisperse.__all__)) == len(ringdisperse.__all__)
    assert [name for name in ringdisperse.__all__ if not hasattr(ringdisperse, name)] == []


# each step prints whether numpy and multiprocessing are loaded after it,
# then its last line of output; the fit prints the repr of its LinearFit
NUMPY_ON_DEMAND = """
import contextlib, io, sys
import ringdisperse, ringdisperse.cli, ringdisperse.sweep, ringdisperse.verify
from ringdisperse.sweep import SweepRow, fit_rounds

def step(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ringdisperse.cli.main(argv)
    print("numpy" in sys.modules, "multiprocessing" in sys.modules, code,
          out.getvalue().splitlines()[-1])

print("numpy" in sys.modules, "multiprocessing" in sys.modules)
step(["run", "--scenario", sys.argv[1]])
step(["sweep", "--vary", "L", "--from", "2", "--to", "2", "--n", "8", "--k", "4",
      "--seeds", "1"])
fit = fit_rounds(ROWS)
print("numpy" in sys.modules, repr(fit))
"""


def test_numpy_is_loaded_only_by_the_fit(tmp_path):
    # rounds = 19 * max_size + 3 * k + 5 exactly, over 12 dispersed rows
    rows = [SweepRow(26, k, max_label, 0, "repaired", "dispersed",
                     19 * max_label_bits(max_label) + 3 * k + 5, 1)
            for k in range(2, 6) for max_label in (7, 15, 31)]
    fit = fit_rounds(rows)
    assert fit.coefficients == pytest.approx((19.0, 3.0, 5.0))
    assert fit.r_squared == pytest.approx(1.0)
    scenario = tmp_path / "six.scn"
    scenario.write_text("ring 6\nmaxlabel 7\nrobot 1 0\nrobot 2 0\nrobot 3 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    script = NUMPY_ON_DEMAND.replace("ROWS", repr(rows))
    done = subprocess.run([sys.executable, "-c", script, str(scenario)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    imported, ran, swept, fitted = done.stdout.splitlines()
    assert imported == "False False"
    assert ran.startswith("False False 0 final placement: ")
    assert swept == "False False 0 no fit: not enough dispersed rows"
    assert fitted == f"True {fit!r}", "the same fit, bit for bit"


UNKNOWN_FEATURE = """
import sys
from ringdisperse.sweep import SweepRow, fit_rounds
rows = [SweepRow(26, k, 7, 0, "repaired", "dispersed", 10 * k, 1) for k in range(2, 6)]
try:
    fit_rounds(rows, features=("L",))
except ValueError as exc:
    print("numpy" in sys.modules, exc)
"""


def test_fit_rounds_rejects_an_unknown_feature_before_numpy_loads():
    # "L" is the CSV's column name, not a feature: it names the ones there are
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", UNKNOWN_FEATURE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False unknown fit features ['L']; known: max_size, k, n\n"
