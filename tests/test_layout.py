"""Layout guard: every function defined in the package runs under ``aiq``.

One child interpreter sets ``sys.setprofile`` before it imports the package,
so that functions called at import time count, and runs the command set
below through ``almostidem.cli.main`` on inputs it writes to a temporary
directory.  Every function, method and nested function that the package's
sources define must be entered, apart from the exemptions named with their
reasons.  Code that only tests call belongs in ``tests/``, not in ``src/``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import almostidem

SRC = pathlib.Path(almostidem.__file__).resolve().parent

# qualified name -> why no command enters it
EXEMPT = {
    "reconstruction.StageFailed.__init__": "runs only when a reconstruction stage fails",
    "channels.tensor_extend": "the ampliated-input CI step imports it from the package",
    "pipeline.strip_timings": "the report-determinism CI step imports it from the package",
}

COMMANDS = [
    ["gen", "--example-twolevel", "--seed", "0", "--out", "two.json"],
    ["gen", "--random-ucp", "--dim", "3", "--seed", "0", "--out", "rand.json"],
    ["gen", "--pinching", "3,1", "--seed", "1", "--out", "base.json"],
    ["gen", "--perturb", "base.json", "--t", "1e-2", "--seed", "1", "--out", "pert.json"],
    ["gen", "--pinching", "4,3,1", "--seed", "0", "--out", "exact.json"],
    ["gen", "--idempotent", "(2,2),(1,3)", "--dim", "7", "--seed", "3", "--out", "idem.json"],
    ["analyze", "pert.json", "--json-out", "analyze.json"],
    ["idempotentize", "pert.json", "--json-out", "envelope.json"],
    ["reconstruct", "pert.json", "--seed", "1", "--json-out", "reconstruct.json"],
    ["factorize", "pert.json", "--seed", "1", "--json-out", "pert-report.json"],
    ["factorize", "exact.json", "--seed", "0", "--json-out", "exact-report.json"],
    ["factorize", "idem.json", "--seed", "3", "--json-out", "idem-report.json"],
    ["verify", "analyze.json"],
    ["verify", "reconstruct.json"],
    ["verify", "pert-report.json"],
    ["verify", "exact-report.json"],
    ["verify", "idem-report.json"],
    ["demo"],
]

CHILD = """
import json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
from almostidem.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
json.dump({"codes": codes,
           "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered})},
          open("entered.json", "w"))
"""


def _defined_functions():
    """{(path, first line): qualified name} of every function in the sources;
    the first line is that of the first decorator, as in ``co_firstlineno``."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def test_every_package_function_runs_under_aiq(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    data = json.load(open(tmp_path / "entered.json"))
    assert data["codes"] == [0] * len(COMMANDS), list(zip(COMMANDS, data["codes"]))
    entered = {(str(pathlib.Path(f).resolve()), line) for f, line in data["entered"]}
    defined = _defined_functions()
    missed = sorted(name for key, name in defined.items() if key not in entered)
    assert missed == sorted(EXEMPT), (
        f"never entered: {sorted(set(missed) - set(EXEMPT))}; "
        f"exempt but entered: {sorted(set(EXEMPT) - set(missed))}"
    )
