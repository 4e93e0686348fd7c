import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hausnum.cli import main
from hausnum.core import Preorder
from hausnum.limits import MAX_DOCUMENT_BYTES


def pytest_configure(config):
    # pyproject's pytest ``pythonpath`` puts src/ on this process's path;
    # tests that run ``python -m hausnum`` in a subprocess need it in the
    # environment too.
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


def run_python(args, timeout: float = 60, **options) -> subprocess.CompletedProcess:
    """``python args`` in a child, the one way tier-1 starts a process: stdin /dev/null,
    stdout and stderr captured as bytes unless ``options`` (``text``, ``cwd``, ``env``,
    ``stdout``, ...; passed on to ``subprocess.run``) say otherwise, and killed with
    ``TimeoutExpired`` after ``timeout`` seconds."""
    options = {"stdin": subprocess.DEVNULL, "stdout": subprocess.PIPE,
               "stderr": subprocess.PIPE, **options}
    return subprocess.run([sys.executable, *args], timeout=timeout, **options)


def run_main(argv, call=main) -> tuple:
    """(exit code, stdout, stderr) of ``call(argv)``, by default ``hausnum.cli.main``,
    in process with both streams captured; a ``SystemExit`` gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Files that are not UTF-8 JSON within the interpreter's limits: a UTF-16
# byte-order mark, an array nested past the recursion limit, and an integer
# past the 4,300-digit int-string limit.
DEEP_ARRAY = b"[" * 200_000 + b"]" * 200_000
UNREADABLE_FILES = {
    "utf16-bom": b"\xff\xfe{}",
    "deep-array": DEEP_ARRAY,
    "long-int": b'{"format":"finite-topology/v1","n":' + b"9" * 5000 + b',"opens":[]}',
}


@pytest.fixture(params=["one-byte-over", "dev-zero"])
def place_oversized(request):
    """Makes a path a source of more than ``MAX_DOCUMENT_BYTES``: the JSON text
    ``value`` padded one byte past the cap, or a link to ``/dev/zero``, which never
    ends."""
    if request.param == "dev-zero" and not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")

    def place(path: Path, value: bytes = b"[]") -> Path:
        if request.param == "dev-zero":
            path.symlink_to("/dev/zero")
        else:
            path.write_bytes(value.ljust(MAX_DOCUMENT_BYTES + 1))
        return path

    return place


def transitive_closure(rows: list[int]) -> tuple[int, ...]:
    rows = list(rows)
    n = len(rows)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = rows[a]
            m = rows[a]
            while m:
                low = m & -m
                acc |= rows[low.bit_length() - 1]
                m ^= low
            if acc != rows[a]:
                rows[a] = acc
                changed = True
    return tuple(rows)


def random_preorder(n: int, rng: random.Random) -> Preorder:
    """Random preorder: identity plus random related pairs, closed transitively."""
    rows = [1 << a for a in range(n)]
    for _ in range(rng.randrange(0, 2 * n + 1)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        rows[a] |= 1 << b
    return Preorder(n, transitive_closure(rows))


@pytest.fixture
def rng():
    return random.Random(0xA11CE)
