"""The process entry ``hausnum.cli.run`` against a plain ``sys.exit(main())``.

``run`` ends the process with ``os._exit`` after the atexit callbacks and the
flushes of stdout and stderr, skipping the interpreter's final collection and
teardown.  Each subprocess test runs ``python -m hausnum`` and ``python -m
hausnum.cli`` and checks that what can be seen from outside (exit code,
stdout, stderr, files written, atexit callbacks, profiler output, the ``-i``
prompt, a failed flush) is what the same call gives through
``sys.exit(main())``, which lets the interpreter end the process.  The
command-line cases also run a copy of pip's console-script launcher for
``hausnum.cli:run``, written to the test's directory.  The unit tests check which of the two exits each
guard selects.
"""

import atexit
import functools
import json
import os
import sys
import threading

import pytest

from hausnum import cli

from conftest import run_python

ENTRIES = ["hausnum", "hausnum.cli"]
# What ``python -m hausnum`` ran before it had its own exit.
REFERENCE = ["-c", "import sys\nfrom hausnum.cli import main\nsys.exit(main())"]
# pip's launcher for the console script ``hausnum = "hausnum.cli:run"``.
CONSOLE_SCRIPT = """\
# -*- coding: utf-8 -*-
import re
import sys
from hausnum.cli import run
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit(run())
"""
# Buffered stdout, so that the final flush writes the output; the default
# cache directory, under each test's own working directory.
ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "TOPO_CACHE_DIR")}


def python(args, cwd, **kwargs):
    """Exit code, stdout and stderr of ``python args`` run in ``cwd``."""
    proc = run_python(args, cwd=cwd, env=ENV, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def entry_args(tmp_path, entry):
    """``-m entry``, or for ``"console-script"`` the launcher, written to ``tmp_path/bin``."""
    if entry != "console-script":
        return ["-m", entry]
    script = tmp_path / "bin" / "hausnum"
    script.parent.mkdir()
    script.write_text(CONSOLE_SCRIPT)
    return [str(script)]


def run_in(cwd, prefix, argv, files):
    """(exit code, stdout, stderr, files) of ``python prefix argv`` run in ``cwd``, made
    if missing and given ``three.json``; ``files`` are read back from it after the
    process has ended."""
    cwd.mkdir(exist_ok=True)
    (cwd / "three.json").write_text(json.dumps(
        {"format": "finite-topology/v1", "n": 3, "opens": [[], [0], [1, 2], [0, 1, 2]]}))
    return python([*prefix, *argv], cwd) + tuple((cwd / name).read_bytes() for name in files)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """``run_in`` of the reference for (argv tuple, files), once per pair in the module and
    each in a directory of its own: it does not depend on the entry compared with it."""
    return functools.cache(lambda argv, files: run_in(
        tmp_path_factory.mktemp("reference"), REFERENCE, argv, files))


@pytest.mark.parametrize("entry", [*ENTRIES, "console-script"])
@pytest.mark.parametrize("argv, code, files", [
    (["enumerate", "3"], 0, ()),
    (["analyze", "three.json", "--format", "text"], 0, ()),
    (["analyze", "three.json", "--out", "report.json"], 0, ("report.json",)),
    (["example", "doubled:5", "--verify", "--out", "doubled.json"], 0, ("doubled.json",)),
    (["symbolic", "--verticals", "omega", "hnumber"], 0, ()),
    (["enumerate", "9"], 2, ()),
    (["analyze", "missing.json"], 2, ()),
    (["enumerate"], 2, ()),
    (["--help"], 0, ()),
], ids=["enumerate", "analyze-text", "analyze-out", "example-out", "symbolic",
        "too-large", "missing-file", "usage", "help"])
def test_same_as_plain_exit(reference, tmp_path, entry, argv, code, files):
    entry_result = run_in(tmp_path, entry_args(tmp_path, entry), argv, files)
    assert entry_result == reference(tuple(argv), files)
    assert entry_result[0] == code


def test_exit_code_one(tmp_path):
    """Exit 1 (a failed check) through ``runpy`` with a ``main`` that returns 1."""
    wrapper = ("import runpy, sys\n"
               "import hausnum.cli\n"
               "hausnum.cli.main = lambda argv=None: print('checked') or 1\n")
    entry = python(["-c", wrapper + "runpy.run_module('hausnum', run_name='__main__')"], tmp_path)
    reference = python(["-c", wrapper + "sys.exit(hausnum.cli.main())"], tmp_path)
    assert entry == reference == (1, b"checked\n", b"")


@pytest.mark.parametrize("entry", ENTRIES)
def test_cold_cache_file_is_complete(reference, tmp_path, entry):
    argv, files = ("enumerate", "4", "--cache-dir", "cache"), ("cache/counts-n4-all.json",)
    entry_result = run_in(tmp_path, entry_args(tmp_path, entry), argv, files)
    assert entry_result == reference(argv, files)
    table = json.loads(entry_result[3])
    assert table["labeled_total"] == 355
    assert python(["-m", entry, *argv], tmp_path)[1] == entry_result[1]


@pytest.mark.parametrize("entry", ENTRIES)
def test_atexit_callback_runs_after_the_output(tmp_path, entry):
    code, out, err = python(
        ["-c", "import atexit, runpy, sys\n"
               "atexit.register(lambda: sys.stdout.write('atexit ran\\n'))\n"
               "sys.argv[1:] = ['enumerate', '3']\n"
               f"runpy.run_module({entry!r}, run_name='__main__', alter_sys=True)\n"],
        tmp_path)
    table, ran = out.decode().splitlines()
    assert (code, ran, err) == (0, "atexit ran", b"")
    assert json.loads(table)["labeled_total"] == 29


@pytest.mark.parametrize("entry", ENTRIES)
def test_profiler_prints_its_stats(tmp_path, entry):
    code, out, err = python(["-m", "cProfile", "-m", entry, "enumerate", "3"], tmp_path)
    assert (code, err) == (0, b"")
    assert out.startswith(b'{"cache_version":"counts-v1"')
    assert b"function calls" in out and b"Ordered by" in out


@pytest.mark.parametrize("entry", ENTRIES)
def test_inspect_prompt_still_shows(tmp_path, entry):
    """``-i`` reports the SystemExit and opens the prompt, as a plain exit does."""
    code, out, err = python(["-i", "-m", entry, "enumerate", "3"], tmp_path)
    ref_code, ref_out, ref_err = python(["-i", *REFERENCE, "enumerate", "3"], tmp_path)
    assert (code, out) == (ref_code, ref_out)
    assert code == 0
    assert err.startswith(b"Traceback (most recent call last):\n")
    assert err.splitlines()[-2:] == ref_err.splitlines()[-2:] == [b"SystemExit: 0", b">>> "]


def closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return write


def dev_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


# How each supported CPython begins its report of a failed final flush of stdout.
FLUSH_REPORT = {
    (3, 10): b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'",
    (3, 11): b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'",
    (3, 12): b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'",
    (3, 13): b"Exception ignored on flushing sys.stdout:\n",
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("stdout", [closed_pipe, dev_full], ids=["closed-pipe", "dev-full"])
def test_failed_flush_reports_as_before(tmp_path, entry, stdout):
    results = []
    for prefix in (["-m", entry], REFERENCE):
        fd = stdout()
        try:
            results.append(python([*prefix, "enumerate", "3"], tmp_path, stdout=fd))
        finally:
            os.close(fd)
    assert results[0] == results[1]
    code, _, err = results[0]
    assert code == 120
    assert err.startswith(FLUSH_REPORT[sys.version_info[:2]])


def no_stdout():
    """None: the child closes fd 1 before it starts, as ``hausnum ... >&-`` does."""
    return None


def lost_stdout_run(tmp_path, argv, stdout, unbuffered):
    """``python -m hausnum argv`` with stdout in a lost state; exit code and stderr."""
    (tmp_path / "three.json").write_text(json.dumps(
        {"format": "finite-topology/v1", "n": 3, "opens": [[], [0], [1, 2], [0, 1, 2]]}))
    fd = stdout()
    try:
        proc = run_python(["-m", "hausnum", *argv], cwd=tmp_path, stdout=fd,
                          env={**ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else ENV,
                          preexec_fn=(lambda: os.close(1)) if fd is None else None)
    finally:
        if fd is not None:
            os.close(fd)
    return proc.returncode, proc.stderr


LOST = pytest.mark.parametrize("stdout", [no_stdout, closed_pipe], ids=["fd1-closed", "closed-pipe"])
UNBUFFERED = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
HELP = [["--help"], ["analyze", "--help"], ["symbolic", "--verticals", "2", "hnumber", "--help"]]


@pytest.mark.parametrize("argv", [
    ["enumerate", "3"],
    ["analyze", "three.json", "--format", "text"],
    ["example", "doubled:12"],
    ["example", "doubled:5", "--verify"],
    ["symbolic", "--verticals", "omega", "hnumber"],
    *HELP,
], ids=["enumerate", "analyze", "example-large", "example-verify", "symbolic",
        "help", "analyze-help", "nested-help"])
@LOST
@UNBUFFERED
def test_lost_stdout_exits_120_without_traceback(tmp_path, argv, stdout, unbuffered):
    """Output too large for the buffer, or written unbuffered, fails in the
    write itself rather than in the final flush; every way ends the same.
    Help, whose whole output is what was lost, says nothing on stderr."""
    code, err = lost_stdout_run(tmp_path, argv, stdout, unbuffered)
    assert code == 120
    assert b"Traceback" not in err
    if argv in HELP:
        assert err == b""


@LOST
@UNBUFFERED
def test_usage_error_with_lost_stdout_exits_2(tmp_path, stdout, unbuffered):
    code, err = lost_stdout_run(tmp_path, ["enumerate", "x"], stdout, unbuffered)
    assert code == 2
    assert err.startswith(b"usage: hausnum enumerate ")
    assert err.endswith(b"error: argument n: invalid int value: 'x'\n")


@pytest.mark.parametrize("caller, teardown", [
    ("run_module(*args)\n", False),
    ("def call():\n    run_module(*args)\ncall()\n", True),
], ids=["module-code", "function"])
def test_teardown_skipped_only_under_module_code(tmp_path, caller, teardown):
    """A finalizer at teardown shows which exit ran: module code gets the fast
    one, a calling function the interpreter's own."""
    code, out, err = python(
        ["-c", "import sys\n"
               "from runpy import run_module\n"
               "class Sentinel:\n"
               "    def __del__(self):\n"
               "        sys.stderr.write('teardown\\n')\n"
               "sentinel = Sentinel()\n"
               "sys.argv[1:] = ['enumerate', '3']\n"
               "args = ('hausnum', None, '__main__', True)\n" + caller],
        tmp_path)
    assert (code, err) == (0, b"teardown\n" if teardown else b"")
    assert json.loads(out)["labeled_total"] == 29


class TestGuards:
    """Which exit ``run`` takes, in process, with ``os._exit`` replaced."""

    class Exited(Exception):
        pass

    class Stream:
        def __init__(self, name, calls, error=None):
            self.name, self.calls, self.error = name, calls, error

        def flush(self):
            self.calls.append(f"flush {self.name}")
            if self.error:
                raise self.error

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def exit_(code):
            calls.append(f"os._exit {code}")
            raise self.Exited

        monkeypatch.setattr(cli, "main", lambda: 1)
        monkeypatch.setattr(cli, "_outermost", lambda frame: True)
        monkeypatch.setattr(sys, "gettrace", lambda: None)
        monkeypatch.setattr(sys, "getprofile", lambda: None)
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
        monkeypatch.setattr(os, "_exit", exit_)
        return calls

    def run(self, monkeypatch, calls, error=None):
        """``cli.run()`` with stdout and stderr that record their flushes.

        pytest installs its own streams when a test starts, so these are
        patched in the test, not in the fixture.
        """
        monkeypatch.setattr(sys, "stdout", self.Stream("stdout", calls, error))
        monkeypatch.setattr(sys, "stderr", self.Stream("stderr", calls))
        cli.run()

    def test_fast_exit_in_order(self, calls, monkeypatch):
        with pytest.raises(self.Exited):
            self.run(monkeypatch, calls)
        assert calls == ["atexit", "flush stdout", "flush stderr", "os._exit 1"]

    @pytest.mark.parametrize("patch", [
        (sys, "gettrace", lambda: print),
        (sys, "getprofile", lambda: print),
        (threading, "active_count", lambda: 2),
        (cli, "_outermost", lambda frame: False),
    ], ids=["tracer", "profiler", "other-thread", "called-from-a-function"])
    def test_guard_falls_back_to_sys_exit(self, calls, monkeypatch, patch):
        monkeypatch.setattr(*patch)
        with pytest.raises(SystemExit) as exc:
            self.run(monkeypatch, calls)
        assert exc.value.code == 1
        assert calls == []

    def test_failed_flush_falls_back_to_sys_exit(self, calls, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            self.run(monkeypatch, calls, BrokenPipeError(32, "Broken pipe"))
        assert exc.value.code == 1
        assert calls == ["atexit", "flush stdout"]
