"""One closed-loop client: runs ``python -m hausnum`` with one request in flight.

Children see only ``src/`` of the checkout on their path, a cache directory
under the benchmark's working directory, and no ``HAUSNUM_BACKEND`` override, so
they take the default path a user of this checkout gets.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# No single invocation in any workload comes near this; a hung child is
# killed so the run still ends within its budget.
INVOCATION_TIMEOUT_S = 100.0


@dataclass
class Result:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    max_rss_mb: float


class Client:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("PYTHON", "HAUSNUM_")) and k != "TOPO_CACHE_DIR"}
        env["PYTHONPATH"] = str(root / "src")
        # Never the caller's cache or the repository's .topo-cache, even for a
        # command that forgets --cache-dir.
        env["TOPO_CACHE_DIR"] = str(work / "env-cache")
        self.env = env

    def python(self, args: list[str]) -> Result:
        """Run the interpreter on ``args``; time it and read the child's own rusage."""
        with tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 reports this child's peak RSS (and that of the workers it
                # reaped), not the maximum over every child the benchmark ran.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return Result(seconds, proc.returncode, out.decode("utf-8", "replace"),
                      stderr, usage.ru_maxrss / 1024.0)

    def hausnum(self, argv: list[str]) -> Result:
        return self.python(["-m", "hausnum", *argv])


PROBE = """
import json, sys
import hausnum
try:
    from hausnum._kernels import _fastcore
    reason = "compiled extension imported"
except ImportError as exc:
    reason = f"import of the compiled extension failed: {exc}"
print(json.dumps({"backend": hausnum.BACKEND_NAME, "reason": reason,
                  "file": hausnum.__file__, "version": hausnum.__version__}))
"""


def probe(client: Client) -> dict:
    """Which hausnum the children import, and which backend it picked and why."""
    result = client.python(["-c", PROBE])
    if result.returncode != 0:
        raise SystemExit(f"cannot import hausnum from {client.root / 'src'}:\n{result.stderr}")
    info = json.loads(result.stdout)
    if not Path(info["file"]).resolve().is_relative_to((client.root / "src").resolve()):
        raise SystemExit(f"children import hausnum from {info['file']}, not this checkout")
    forced = os.environ.get("HAUSNUM_BACKEND")
    if forced:
        info["reason"] += f"; HAUSNUM_BACKEND={forced} was removed from the children's env"
    return info


def commit(root: Path) -> str | None:
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which names the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(root: Path, client: Client, seed: int, trace: bool) -> dict:
    info = probe(client)
    return {
        "backend": info["backend"],
        "backend_reason": info["reason"],
        "hausnum_version": info["version"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "trace": trace,
    }
