"""In-process A/B timing of one call in two trees of this repository; prints one JSON object.

    python tools/ab.py --parent REV [--change REV] --setup STMT --call STMT --pairs N

Each side's ``src/`` comes from ``git archive`` into a temporary directory; by default
the change is this checkout's own ``src/``.  Each timing runs in a fresh interpreter
that sees only that ``src`` on its path, no other ``PYTHON*`` or ``HAUSNUM_*`` variable,
a fresh ``TOPO_CACHE_DIR`` and a temporary ``.pyc`` prefix.  It runs the setup untimed,
times the call once, and reports the seconds and its own peak RSS (``VmHWM``;
``ru_maxrss`` would carry this process's peak across ``exec``).  The parent runs
first in even pairs, the change in odd pairs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # a child past this is killed and the run fails

CHILD = """\
import sys, time
exec(sys.argv[1])
call = compile(sys.argv[2], "<call>", "exec")
start = time.perf_counter()
exec(call)
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(seconds, hwm / 1024)
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, timeout=60).stdout


def archive(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev``, unpacked under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         check=True, capture_output=True, timeout=60).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True, timeout=60)
    return dest / "src"


def run(src: Path, work: Path, setup: str, call: str) -> tuple:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "HAUSNUM_"))}
    env.update(PYTHONPATH=str(src), TOPO_CACHE_DIR=tempfile.mkdtemp(dir=work),
               PYTHONPYCACHEPREFIX=str(work / "pycache"))
    out = subprocess.run([sys.executable, "-c", CHILD, setup, call], cwd=work, env=env,
                         stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         timeout=TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"child in {src} failed:\n{out.stderr}")
    return tuple(map(float, out.stdout.split()[-2:]))  # (seconds, peak MB)


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change")
    parser.add_argument("--setup", default="pass")
    parser.add_argument("--call", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        trees = {"parent": archive(args.parent, work / "parent"),
                 "change": archive(args.change, work / "change") if args.change else ROOT / "src"}
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            for side in ("parent", "change")[::1 if pair % 2 == 0 else -1]:
                runs[side].append(run(trees[side], work, args.setup, args.call))
    seconds = {side: [s for s, _ in runs[side]] for side in runs}
    stats = {side: {"seconds": summary(seconds[side]),
                    "peak_mb": summary([mb for _, mb in runs[side]]),
                    "runs_s": [round(s, 6) for s in seconds[side]]} for side in runs}
    parent, change = stats["parent"]["seconds"], stats["change"]["seconds"]
    print(json.dumps({
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "revisions": {
            "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent).strip()},
            "change": {"rev": args.change or "working tree",
                       "commit": git("rev-parse", args.change or "HEAD").strip(),
                       "dirty": not args.change and bool(git("status", "--porcelain", "src"))}},
        "protocol": {"setup": args.setup, "call": args.call, "pairs": args.pairs,
                     "order": "parent first in even pairs, change first in odd pairs",
                     "child": "fresh interpreter per timing, setup untimed, call timed once",
                     "statistics": "median and quartiles (inclusive method) of each side"},
        **stats,
        "change_better_pairs": sum(c < p for p, c in zip(seconds["parent"], seconds["change"])),
        "median_gap": round(parent["median"] - change["median"], 6),
        "parent_iqr": round(parent["q3"] - parent["q1"], 6),
    }, indent=1))

if __name__ == "__main__":
    main()
