"""Byte-for-byte pins of what ``hausnum.cli.main`` writes.

Each call runs in process from a scratch directory with fixed relative file
names, so its exit code, stdout, stderr and any ``--out`` file are the same on
every machine.  The pin is the first 16 hex digits of the sha256 over those
four.  The calls cover every subcommand and format, ``--verify``,
``--oracle``, ``--out`` and the exit-2 paths (documents that do not parse or
do not validate, ``too-large`` and bad parameters).  Usage errors and
``--help`` are argparse's own text and are left out.

After a deliberate output change, the failure message lists the new pins.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hausnum.cli import main

DOCS = {
    "three.json": {"format": "finite-topology/v1", "n": 3,
                   "opens": [[], [0], [1, 2], [0, 1, 2]]},
    "four.json": {"format": "finite-topology/v1", "n": 4, "name": "four",
                  "opens": [[0, 1, 2, 3], [2], [0, 2], [1, 2], [2, 3], [0, 1, 2],
                            [0, 2, 3], [1, 2, 3], [], [1], [3], [1, 3]]},
    "chain.json": {"format": "finite-topology/v1", "n": 5,
                   "subbasis": [[0], [0, 1], [0, 1, 2], [3, 4]]},
    "discrete6.json": {"format": "finite-topology/v1", "n": 6,
                       "subbasis": [[p] for p in range(6)]},
    "singletons17.json": {"format": "finite-topology/v1", "n": 17,
                          "subbasis": [[p] for p in range(17)]},
    "invalid.json": {"format": "finite-topology/v1", "n": 3,
                     "opens": [[0], [1], [0, 2]]},
    "wrong-format.json": {"format": "finite-topology/v2", "n": 2, "opens": [[]]},
    "both.json": {"format": "finite-topology/v1", "n": 2, "opens": [[]],
                  "subbasis": [[]]},
    "descending.json": {"format": "finite-topology/v1", "n": 3,
                        "opens": [[], [2, 1], [0, 1, 2]]},
    "zero.json": {"format": "finite-topology/v1", "n": 0, "opens": []},
}
RAW = {"garbled.json": "{not json", "list.json": "[1, 2]"}

# (argv, pin); ``{cache}`` marks a fresh cache directory for the call
CALLS = [
    # analyze
    (["analyze", "three.json"], "b6fe0c0efc293c11"),
    (["analyze", "three.json", "--format", "text"], "aa4acaca74cb0aa0"),
    (["analyze", "three.json", "--oracle"], "fc3478debf52bc3c"),
    (["analyze", "three.json", "--oracle", "--format", "text"], "e1b849864e3c5dfd"),
    (["analyze", "four.json", "--oracle"], "db8ef18f65fecc03"),
    (["analyze", "four.json", "--format", "text", "--out", "report.txt"], "31971d3549cfd49e"),
    (["analyze", "chain.json"], "8b9c950f244986e5"),
    (["analyze", "chain.json", "--oracle", "--format", "text"], "04ea35698a107ec4"),
    (["analyze", "discrete6.json", "--format", "text"], "00d202baabce5cf3"),
    (["analyze", "discrete6.json", "--oracle"], "bc9916c02a994263"),
    (["analyze", "singletons17.json"], "2e1f6a8b03f23792"),
    (["analyze", "invalid.json"], "6fc7b7f42c8cdf47"),
    (["analyze", "wrong-format.json"], "7ed08ec75e882551"),
    (["analyze", "both.json"], "56e41f2e7ec23e82"),
    (["analyze", "descending.json"], "781ccd62c8b532f7"),
    (["analyze", "zero.json"], "c4170df6a50c16b1"),
    (["analyze", "garbled.json"], "9c4cf04fea407ad5"),
    (["analyze", "list.json"], "8b99d974480e36a8"),
    (["analyze", "missing.json"], "0773201fc4cdd722"),
    (["analyze", "three.json", "--out", "no-such-dir/report.json"], "d926172c10a796c4"),
    # enumerate
    (["enumerate", "1", "--cache-dir", "{cache}"], "8078b0aacef0edb9"),
    (["enumerate", "3", "--cache-dir", "{cache}"], "0816cef670f55ac0"),
    (["enumerate", "4", "--format", "csv", "--cache-dir", "{cache}"], "cebb58bf197f7c2b"),
    (["enumerate", "4", "--t0-only", "--cache-dir", "{cache}"], "1176f0f3aa999979"),
    (["enumerate", "5", "--cache-dir", "shared"], "af2267ff183d8130"),
    (["enumerate", "5", "--cache-dir", "shared"], "af2267ff183d8130"),
    (["enumerate", "5", "--t0-only", "--jobs", "2", "--format", "csv",
      "--cache-dir", "{cache}"], "595f7733f308208a"),
    (["enumerate", "5", "--labeled", "--format", "text", "--cache-dir", "shared"], "af3e03ae73d3c063"),
    (["enumerate", "5", "--classes", "--format", "text", "--cache-dir", "shared"], "c7078fd4ef8143d3"),
    (["enumerate", "5", "--histogram", "--format", "text", "--cache-dir", "shared"], "e55235894345dbdf"),
    (["enumerate", "4", "--t0-only", "--format", "text", "--cache-dir", "{cache}"], "2ae99c28b6488c7f"),
    (["enumerate", "3", "--out", "table.json", "--cache-dir", "{cache}"], "b17c2b4a06c704cb"),
    (["enumerate", "2", "--out", "no-such-dir/table.json", "--cache-dir", "{cache}"], "e649494796c6272b"),
    (["enumerate", "2", "--jobs", "0", "--cache-dir", "{cache}"], "f666483ddca47adb"),
    (["enumerate", "0", "--cache-dir", "{cache}"], "b180bb07edbb5603"),
    (["enumerate", "9", "--cache-dir", "{cache}"], "59a163a6577cfe90"),
    # example
    (["example", "three-point"], "4a23725a66725397"),
    (["example", "three-point", "--format", "text"], "347e3c001f73cbfd"),
    (["example", "four-point", "--verify"], "eabc1836940b0bd6"),
    (["example", "four-point", "--verify", "--format", "text"], "6fe41ed5541fb523"),
    (["example", "two-block:2", "--verify"], "ecaa23d9f8b8d440"),
    (["example", "two-block:5", "--verify", "--format", "text"], "d6658e8c931e7df6"),
    (["example", "two-block:7"], "f7590a92cef0b728"),
    (["example", "doubled:3", "--verify"], "97ae0e007f8eecfb"),
    (["example", "doubled:6", "--out", "doubled6.json"], "394aa932c7be2aa0"),
    (["example", "doubled:9", "--verify", "--out", "doubled9.json"], "3626ee1e0bd9e48d"),
    (["example", "doubled:12", "--format", "text"], "3cb9c6f670d27ce1"),
    (["example", "doubled:17"], "2e1f6a8b03f23792"),
    (["example", "doubled:2"], "6199d39f48632327"),
    (["example", "two-block:1"], "c246922ae65635e0"),
    (["example", "two-block:x"], "b5f4887bfbbe2c83"),
    (["example", "klein-bottle"], "34b03397f813e75d"),
    # symbolic
    (["symbolic", "--verticals", "1", "separable", "--points", "b:1/2,v:1"], "c3aafd8dc5d29f28"),
    (["symbolic", "--verticals", "2", "--format", "text", "separable",
      "--points", "b:1/2,v:1,v:2"], "e6551c44191bbcc8"),
    (["symbolic", "--verticals", "2", "separable", "--points", "b:1/3,v:1,v:2"], "cd536d4691f9edb5"),
    (["symbolic", "--verticals", "omega", "--format", "text", "separable",
      "--points", "b:1/3,b:2/3,v:7"], "bceff98a72ce7797"),
    (["symbolic", "--verticals", "1", "--no-t1", "separable", "--points", "b:0,b:1"], "8b3cabf66bdec079"),
    (["symbolic", "--verticals", "3", "hnumber"], "9dcbb3fbc0dc77bb"),
    (["symbolic", "--verticals", "3", "--format", "text", "hnumber"], "62b1ec0f0d430501"),
    (["symbolic", "--verticals", "omega", "hnumber"], "1117efb6ede6b8bb"),
    (["symbolic", "--verticals", "OMEGA", "--format", "text", "hnumber"], "fd85256480bb2955"),
    (["symbolic", "--verticals", "1", "t1", "--pair", "v:1", "b:1/2"], "f8f5189ac68bd093"),
    (["symbolic", "--verticals", "2", "--format", "text", "t1", "--pair", "v:1", "v:2"], "a294fd4bcac959ec"),
    (["symbolic", "--verticals", "1", "--no-t1", "t1", "--pair", "v:1", "b:1/2"], "0b4ab3aba8902bba"),
    (["symbolic", "--verticals", "1", "--no-t1", "--format", "text", "t1",
      "--pair", "b:1/2", "v:1"], "90f9eb2138aae2a1"),
    (["symbolic", "--verticals", "2", "--out", "t1.json", "t1",
      "--pair", "b:1/4", "b:3/4"], "e6f87a1e9ba9a139"),
    (["symbolic", "--verticals", "1", "separable", "--points", "b:1/2,q:9"], "853a58575aa9702b"),
    (["symbolic", "--verticals", "1", "separable", "--points", "b:1/2"], "5851490b64f3d5c8"),
    (["symbolic", "--verticals", "1", "separable", "--points", "b:1/3,b:1/3"], "277cbe1eada046ba"),
    (["symbolic", "--verticals", "1", "separable", "--points", "b:1/2,v:5"], "2dff823bafb12f6f"),
    (["symbolic", "--verticals", "1", "separable", "--points", "b:2,v:1"], "34154da1b318f1c9"),
    (["symbolic", "--verticals", "1", "separable", "--points", " , "], "7911b44c104eda19"),
    (["symbolic", "--verticals", "1", "t1", "--pair", "v:1", "v:1"], "09b75fd40b662f89"),
    (["symbolic", "--verticals", "1", "t1", "--pair", "v:0", "v:1"], "ab9636d915284714"),
    (["symbolic", "--verticals", "zzz", "hnumber"], "56b0c797d6c31c3d"),
    (["symbolic", "--verticals", "0", "hnumber"], "18a71f0d409b0dde"),
]


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    payload = json.dumps([code, out.getvalue(), err.getvalue(),
                          written.read_text(encoding="utf-8")
                          if written is not None and written.exists() else None])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, doc in DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, text in RAW.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_outputs_byte_identical(workdir):
    got = []
    for i, (argv, _) in enumerate(CALLS):
        got.append((argv, run([a.replace("{cache}", f"cache{i}") for a in argv])))
    table = "".join(f"    ({json.dumps(argv)}, \"{pin}\"),\n" for argv, pin in got)
    assert got == CALLS, "new pins:\n" + table
