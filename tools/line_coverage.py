"""Line coverage of ``src/hausnum`` under tier-1, as a check: exits 1 and lists every
function-body statement of the package that ran in no process.

Run from anywhere with Python 3.12 or later and pytest installed::

    python tools/line_coverage.py

It runs the tier-1 suite in this process under a ``sys.monitoring`` line collector.
The child interpreters the suite starts collect too: a generated ``sitecustomize.py``
on ``PYTHONPATH`` starts the same collector in each of them and writes its lines to
a file at exit.  ``hausnum.cli.run`` runs the atexit callbacks before ``os._exit``,
so a child that ends through it writes them as well.  ``sys.monitoring``, unlike
``sys.settrace``, leaves ``sys.gettrace()`` empty, so ``run`` takes the exit it
takes without the collector.  A statement counts when it compiles to code; a
docstring or a ``global`` declaration does not.
"""

import ast
import inspect
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hausnum"


def collect(prefix: str) -> set:
    """Starts recording, as (file name, line), each line of code in a file under
    ``prefix`` that runs in this process from now on; returns the set it fills."""
    monitoring = sys.monitoring
    lines = set()

    def line(code, number):
        if code.co_filename.startswith(prefix):
            lines.add((code.co_filename, number))
        return monitoring.DISABLE  # one event per line is enough

    monitoring.use_tool_id(monitoring.COVERAGE_ID, "hausnum line coverage")
    monitoring.register_callback(monitoring.COVERAGE_ID, monitoring.events.LINE, line)
    monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.LINE)
    return lines


SITECUSTOMIZE = """\
import atexit
import os
import sys

{collect}

_lines = collect({prefix!r})


@atexit.register
def _write():
    with open(os.path.join({out!r}, str(os.getpid())), "a", encoding="utf-8") as file:
        file.writelines(f"{{name}}\\t{{number}}\\n" for name, number in _lines)
"""


def statements(path: Path) -> set:
    """(file name, first line) of each function-body statement in ``path`` that
    compiles to code."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno
              for function in ast.walk(ast.parse(source))
              if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
              for statement in function.body
              for node in ast.walk(statement) if isinstance(node, ast.stmt)}
    code_lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        code_lines.update(line for _, _, line in code.co_lines())
        codes += [const for const in code.co_consts if inspect.iscode(const)]
    return {(str(path), line) for line in starts & code_lines}


def main() -> int:
    if sys.version_info < (3, 12):
        print("line_coverage.py needs sys.monitoring, Python 3.12 or later", file=sys.stderr)
        return 2
    prefix = str(PACKAGE) + os.sep
    ran = collect(prefix)
    import pytest

    with tempfile.TemporaryDirectory() as work:
        out = Path(work, "lines")
        out.mkdir()
        Path(work, "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            collect=inspect.getsource(collect), prefix=prefix, out=str(out)), encoding="utf-8")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (work, os.environ.get("PYTHONPATH")) if p)
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
        for path in out.iterdir():
            for record in path.read_text(encoding="utf-8").splitlines():
                name, number = record.split("\t")
                ran.add((name, int(number)))
    if code != 0:
        return code
    required = set().union(*map(statements, sorted(PACKAGE.glob("*.py"))))
    missed = sorted(required - ran)
    for name, line in missed:
        print(f"{Path(name).relative_to(ROOT)}:{line}: ran in no process")
    print(f"{len(missed)} of {len(required)} function-body statements of src/hausnum "
          "ran in no process")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
