import functools
import json
import subprocess
import sys
import time

import pytest

from hausnum.cli import main
from hausnum.core import PointSet
from hausnum.jsonio import topology_to_json
from hausnum.limits import MAX_DOCUMENT_BYTES
from hausnum.constructions import three_point_example
from hausnum.separation import HausdorffNumber

from conftest import DEEP_ARRAY, UNREADABLE_FILES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAnalyze:
    def write_example(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(topology_to_json(three_point_example()))
        return str(path)

    def test_three_point_report(self, tmp_path, capsys):
        code, out = run_cli(capsys, "analyze", self.write_example(tmp_path))
        report = json.loads(out)
        assert code == 0
        assert report["hausdorff_number"] == 3
        assert report["hausdorff"] is False
        assert report["compact"] is True

    def test_discrete_four(self, tmp_path, capsys):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps({
            "format": "finite-topology/v1", "n": 4,
            "subbasis": [[0], [1], [2], [3]],
        }))
        code, out = run_cli(capsys, "analyze", str(path))
        report = json.loads(out)
        assert code == 0
        assert report["hausdorff_number"] == 2
        assert all(report[k] for k in
                   ("t0", "t1", "hausdorff", "regular", "normal", "discrete", "compact"))

    def test_oracle_cross_check(self, tmp_path, capsys):
        code, out = run_cli(capsys, "analyze", "--oracle", self.write_example(tmp_path))
        report = json.loads(out)
        assert code == 0
        assert report["oracle_hausdorff_number"] == 3
        assert report["oracle_agrees"] is True

    def test_oracle_disagreement_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("hausnum.separation.hausdorff_number_oracle",
                            lambda t: HausdorffNumber(99, PointSet(t.n, 1)))
        code, out = run_cli(capsys, "analyze", "--oracle", self.write_example(tmp_path))
        assert code == 1
        assert '"oracle_agrees":false' in out

    def test_oracle_too_large(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "format": "finite-topology/v1", "n": 6,
            "subbasis": [[p] for p in range(6)],
        }))
        code, _ = run_cli(capsys, "analyze", "--oracle", str(path))
        assert code == 2

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_validation_error(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({
            "format": "finite-topology/v1", "n": 2, "opens": [[], [0], [1]],
        }))
        code, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_opens_past_open_cap(self, tmp_path, capsys):
        # every subset of 17 points: 2**17 distinct opens, past MAX_OPENS
        path = tmp_path / "discrete17.json"
        path.write_text(json.dumps({
            "format": "finite-topology/v1", "n": 17,
            "opens": [[p for p in range(17) if m >> p & 1] for m in range(1 << 17)],
        }))
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error (too-large): more than 65536 open sets\n"

    def test_rejected_family_past_the_scan_cap(self, tmp_path):
        # every subset of 13 points but the full set: 8,191 opens, not a topology
        path = tmp_path / "no-full-set13.json"
        path.write_text(json.dumps({
            "format": "finite-topology/v1", "n": 13,
            "opens": [[p for p in range(13) if m >> p & 1] for m in range((1 << 13) - 1)],
        }))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hausnum", "analyze", str(path)],
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error (too-large): not a topology; defects are located only in "
            "families of up to 4096 open sets, this one has 8191\n")
        assert elapsed < 1.0

    def test_text_format(self, tmp_path, capsys):
        code, out = run_cli(capsys, "analyze", "--format", "text",
                            self.write_example(tmp_path))
        assert code == 0
        assert "hausdorff number: 3" in out


class TestUnreadableFiles:
    @pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
    def test_analyze_is_a_parse_error(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNREADABLE_FILES[name])
        start = time.perf_counter()
        code = main(["analyze", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error (parse-error): ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert elapsed < 1.0

    def test_analyze_past_the_cap_is_a_parse_error(self, tmp_path, capsys, place_oversized):
        path = place_oversized(tmp_path / "big.json")
        start = time.perf_counter()
        code = main(["analyze", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error (parse-error): cannot read {path}: "
                                f"more than {MAX_DOCUMENT_BYTES} bytes\n")
        assert elapsed < 1.0

    def test_no_traceback_from_the_command(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(DEEP_ARRAY)
        proc = subprocess.run([sys.executable, "-m", "hausnum", "analyze", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error (parse-error): ")


class TestEnumerate:
    def test_histogram_rows(self, tmp_path, capsys):
        code, out = run_cli(capsys, "enumerate", "3", "--cache-dir", str(tmp_path))
        table = json.loads(out)
        assert code == 0
        assert table["labeled_total"] == 29
        assert {"hausdorff_number": 2, "labeled_count": 1, "class_count": 1} \
            in table["rows"]

    def test_labeled_total_text(self, tmp_path, capsys):
        code, out = run_cli(capsys, "enumerate", "2", "--labeled",
                            "--format", "text", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == "total 4\n"

    def test_n1_total(self, tmp_path, capsys):
        code, out = run_cli(capsys, "enumerate", "1", "--labeled",
                            "--format", "text", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == "total 1\n"

    def test_csv_format(self, tmp_path, capsys):
        code, out = run_cli(capsys, "enumerate", "2", "--format", "csv",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == ("n,hausdorff_number,labeled_count,class_count\n"
                       "2,2,1,1\n2,3,3,2\n")

    def test_t0_filter(self, tmp_path, capsys):
        code, out = run_cli(capsys, "enumerate", "3", "--t0-only",
                            "--cache-dir", str(tmp_path))
        table = json.loads(out)
        assert code == 0
        assert table["labeled_total"] == 19
        assert table["t0_only"] is True

    def test_too_large(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "enumerate", "9", "--cache-dir", str(tmp_path))
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code, out = run_cli(capsys, "enumerate", "2", "--out", str(out_path),
                            "--cache-dir", str(tmp_path / "cache"))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["labeled_total"] == 4

    def test_out_to_missing_directory(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "table.json"
        code = main(["enumerate", "2", "--out", str(out_path),
                     "--cache-dir", str(tmp_path / "cache")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error (bad-parameter): cannot write ")
        assert not out_path.exists()

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        code, out = run_cli(capsys, "enumerate", "2", "--jobs", "0",
                            "--cache-dir", str(tmp_path))
        assert code == 2 and out == ""


class TestExample:
    def test_emit_three_point(self, capsys):
        code, out = run_cli(capsys, "example", "three-point")
        doc = json.loads(out)
        assert code == 0
        assert doc["name"] == "three-point"
        assert doc["opens"] == [[], [0], [1, 2], [0, 1, 2]]

    def test_verify_two_block_five(self, capsys):
        code, out = run_cli(capsys, "example", "two-block:5", "--verify")
        verification = json.loads(out)
        assert code == 0
        assert verification["passed"] is True
        labels = [c["check"] for c in verification["checks"]]
        assert "hausdorff number is 5" in labels
        assert "oracle agrees with closed form" in labels

    def test_verify_three_point_and_doubled(self, capsys):
        for name in ("three-point", "doubled:3", "four-point"):
            code, out = run_cli(capsys, "example", name, "--verify")
            assert code == 0
            assert json.loads(out)["passed"] is True

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("hausnum.separation.hausdorff_number_oracle",
                            lambda t: HausdorffNumber(99, PointSet(t.n, 1)))
        code, out = run_cli(capsys, "example", "three-point", "--verify")
        assert code == 1
        assert '"passed":false' in out

    def test_bad_name(self, capsys):
        code, _ = run_cli(capsys, "example", "klein-bottle")
        assert code == 2

    def test_doubled_past_open_cap(self, capsys):
        # doubled:17 has 3 * 2**15 = 98,304 opens, past MAX_OPENS
        code = main(["example", "doubled:17"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error (too-large): ")

    @pytest.mark.parametrize("kind", ["two-block", "doubled"])
    def test_size_past_point_cap_fails_before_building(self, capsys, kind):
        # checked before any list of n points is built, which at 10**20 would never end
        code = main(["example", f"{kind}:{10**20}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error (point-out-of-range): "
                                f"point count must be in 1..64, got {10**20}\n")

    def test_roundtrip_through_analyze(self, tmp_path, capsys):
        out_path = tmp_path / "tb4.json"
        code, _ = run_cli(capsys, "example", "two-block:4", "--out", str(out_path))
        assert code == 0
        code, out = run_cli(capsys, "analyze", str(out_path), "--oracle")
        report = json.loads(out)
        assert code == 0
        assert report["hausdorff_number"] == 4
        assert report["oracle_agrees"] is True

    def test_four_point_file_with_oracle(self, tmp_path, capsys):
        out_path = tmp_path / "fp.json"
        code, _ = run_cli(capsys, "example", "four-point", "--out", str(out_path))
        assert code == 0
        code, out = run_cli(capsys, "analyze", str(out_path), "--oracle")
        report = json.loads(out)
        assert code == 0
        assert report["hausdorff_number"] == 3
        assert report["oracle_hausdorff_number"] == 3


class TestSymbolic:
    def test_non_separable_pair(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--verticals", "1",
                            "separable", "--points", "b:1/2,v:1")
        doc = json.loads(out)
        assert code == 0
        assert doc["separable"] is False
        assert doc["certificate"]["kind"] == "hub"

    @pytest.mark.parametrize("point, reason", [
        ("b:abc", "Invalid literal for Fraction: 'abc'"), ("b:1/0", "Fraction(1, 0)")])
    def test_coordinate_fraction_refuses_keeps_its_message(self, capsys, point, reason):
        assert main(["symbolic", "--verticals", "2", "separable",
                     "--points", f"{point},v:1"]) == 2
        assert capsys.readouterr() == (
            "", f"error (parse-error): bad base point {point!r}: {reason}\n")

    @pytest.mark.parametrize("points, error", [
        ("v:9,v:9", "error (duplicate-points): points must be pairwise distinct"),
        ("v:9,b:1/3", "error (space-mismatch): vertical point 9 outside a space "
                      "with 2 stacked points")])
    def test_duplicates_are_found_before_the_space_check(self, capsys, points, error):
        assert main(["symbolic", "--verticals", "2", "separable", "--points", points]) == 2
        assert capsys.readouterr() == ("", error + "\n")

    def test_omega_hausdorff_number(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--verticals", "omega", "hnumber")
        doc = json.loads(out)
        assert code == 0
        assert doc["hausdorff_number"] == {"kind": "omega_1"}

    def test_finite_hausdorff_number(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--verticals", "3", "hnumber")
        assert code == 0
        assert json.loads(out)["hausdorff_number"] == {"kind": "finite", "value": 5}

    def test_t1_failure_in_unpunctured_variant(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--verticals", "1", "--no-t1",
                            "t1", "--pair", "v:1", "b:1/2")
        doc = json.loads(out)
        assert code == 0
        assert doc["t1"] is False
        assert "v:1" in doc["explanation"]

    def test_t1_holds_in_punctured_variant(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--verticals", "1",
                            "t1", "--pair", "v:1", "b:1/2")
        doc = json.loads(out)
        assert code == 0
        assert doc["t1"] is True

    def test_separable_witness_verdict(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--verticals", "2",
                            "separable", "--points", "b:1/3,v:1,v:2")
        doc = json.loads(out)
        assert code == 0
        assert doc["separable"] is True
        assert len(doc["witness"]) == 3

    @pytest.mark.parametrize("query", [
        ["separable", "--points", "b:1e-5000,b:0"],
        ["t1", "--pair", "b:1e-99999999", "b:0"],
    ])
    def test_coordinate_past_the_digit_cap(self, capsys, query):
        start = time.perf_counter()
        code = main(["symbolic", "--verticals", "1", *query])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error (parse-error): bad base point: its coordinate "
                                "implies more than 2,000 digits\n")
        assert elapsed < 1.0

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_hausdorff_number_past_the_digit_cap(self, capsys, fmt):
        code = main(["symbolic", "--verticals", NINES, "--format", fmt, "hnumber"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error (parse-error): bad --verticals value implies "
                                "more than 2,000 digits\n")

    def test_hausdorff_number_at_the_digit_cap(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--verticals", "9" * 2000, "hnumber")
        assert code == 0
        assert json.loads(out)["hausdorff_number"]["value"] == 10 ** 2000 + 1

    def test_bad_points(self, capsys):
        code, _ = run_cli(capsys, "symbolic", "--verticals", "1",
                          "separable", "--points", "b:1/2,q:9")
        assert code == 2
        code, _ = run_cli(capsys, "symbolic", "--verticals", "zzz", "hnumber")
        assert code == 2


# 4,300 digits: the longest int text the interpreter converts
NINES = "9" * 4300
DOCUMENTS = {
    "true-point": '{"format":"finite-topology/v1","n":3,"opens":[[],[true],[0,1,2]]}',
    "true-n": '{"format":"finite-topology/v1","n":true,"opens":[[]]}',
    "long-n": '{"format":"finite-topology/v1","n":%s,"opens":[[]]}' % NINES,
}


@pytest.mark.parametrize("argv", [
    ["symbolic", "--verticals", NINES, "hnumber"],
    ["symbolic", "--verticals", NINES, "--format", "text", "hnumber"],
    ["symbolic", "--verticals", NINES, "separable", "--points", "b:0,b:1"],
    ["symbolic", "--verticals", NINES, "t1", "--pair", "b:0", "b:1"],
    ["symbolic", "--verticals", "omega", "t1", "--pair", "v:" + NINES, "b:0"],
    ["enumerate", NINES],
    ["example", "two-block:1" + NINES],
    *(["analyze", name] for name in DOCUMENTS),
], ids=["hnumber-json", "hnumber-text", "separable", "t1", "v-index", "enumerate",
        "two-block", *DOCUMENTS])
def test_boundary_inputs_end_without_a_traceback(tmp_path, capsys, argv):
    """Inputs at the interpreter's int-string limit and bool points: every
    one ends in an exit code, never in an exception out of ``main``."""
    if argv[0] == "analyze":
        path = tmp_path / "doc.json"
        path.write_text(DOCUMENTS[argv[1]], encoding="utf-8")
        argv = ["analyze", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.out == "" and captured.err.startswith("error (")


class TestStability:
    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        args = ("enumerate", "3", "--format", "csv", "--cache-dir", str(tmp_path))
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hausnum", "example", "three-point"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 3


@functools.cache
def bare_interpreter_modules() -> frozenset[str]:
    """What ``python -c`` has loaded before running any code (site hooks too)."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


class TestImportSet:
    """Each subcommand loads only the package modules it uses, no call loads
    ``dataclasses`` or ``inspect``, and a plainly spelled call is read
    without ``argparse`` (and the ``gettext`` and ``locale`` it loads), also
    through the ``python -m hausnum`` entry."""

    PROBE = ("import contextlib, io, json, sys\n"
             "from hausnum.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()), \\\n"
             "        contextlib.redirect_stderr(io.StringIO()):\n"
             "    try:\n"
             "        code = main(json.loads(sys.argv[1]))\n"
             "    except SystemExit as exc:\n"
             "        code = exc.code\n"
             "print(code, *sorted(sys.modules))\n")

    def loaded(self, argv, expected_code: int = 0, plain: bool = True) -> set[str]:
        proc = subprocess.run([sys.executable, "-c", self.PROBE, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, *modules = proc.stdout.split()
        assert code == str(expected_code)
        added = set(modules) - bare_interpreter_modules()
        assert not added & {"dataclasses", "inspect"}
        front_end = added & {"argparse", "gettext", "locale"}
        assert front_end == (set() if plain else {"argparse", "gettext", "locale"})
        return {m.removeprefix("hausnum.") for m in added if m.startswith("hausnum.")}

    def test_analyze(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(topology_to_json(three_point_example()))
        loaded = self.loaded(["analyze", str(path)])
        assert {"separation", "jsonio"} <= loaded
        assert not loaded & {"symbolic", "enumeration", "constructions"}

    def test_enumerate_cache_hit(self, tmp_path, capsys):
        run_cli(capsys, "enumerate", "3", "--cache-dir", str(tmp_path))
        loaded = self.loaded(["enumerate", "3", "--cache-dir", str(tmp_path)])
        assert {"enumeration", "jsonio"} <= loaded
        assert not loaded & {"core", "symbolic", "separation", "constructions"}

    def test_enumerate_cold_table(self, tmp_path):
        loaded = self.loaded(["enumerate", "4", "--format", "csv", "--cache-dir", str(tmp_path)])
        assert (tmp_path / "counts-n4-all.json").exists()
        assert "enumeration" in loaded
        assert not loaded & {"core", "symbolic", "separation", "constructions"}

    def test_example_verify(self):
        loaded = self.loaded(["example", "three-point", "--verify"])
        assert {"constructions", "separation", "jsonio"} <= loaded
        assert not loaded & {"symbolic", "enumeration"}

    def test_symbolic(self):
        loaded = self.loaded(["symbolic", "--verticals", "2", "hnumber"])
        assert {"symbolic", "jsonio"} <= loaded
        assert not loaded & {"core", "separation", "enumeration", "constructions"}

    @pytest.mark.parametrize("argv, plain", [
        (["enumerate"], False),
        (["enumerate", "9"], True),
        (["analyze", "no-such-dir/space.json"], True),
    ], ids=["argv0", "argv1", "argv2"])
    def test_error_exits(self, argv, plain):
        self.loaded(argv, expected_code=2, plain=plain)

    def test_help_loads_only_the_front_end(self):
        assert self.loaded(["--help"], plain=False) == {"cli", "errors", "limits", "_records"}

    @staticmethod
    def imported(args, expected_code: int = 0) -> set[str]:
        """Every module that ``python -X importtime args`` imports."""
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True)
        assert proc.returncode == expected_code, proc.stderr
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and not line.endswith("imported package")}

    @pytest.mark.parametrize("argv, code", [
        (["enumerate", "4", "--format", "csv", "--cache-dir", "{cache}"], 0),
        (["example", "three-point", "--verify"], 0),
        (["symbolic", "--verticals", "2", "hnumber"], 0),
        (["enumerate", "9"], 2),
    ], ids=["enumerate-cold", "example-verify", "symbolic", "too-large"])
    def test_module_entry(self, tmp_path, argv, code):
        """``python -m hausnum`` loads the package modules ``main`` loads."""
        def fresh(name):
            return [a.replace("{cache}", str(tmp_path / name)) for a in argv]

        imported = self.imported(["-m", "hausnum", *fresh("entry")], code)
        added = imported - self.imported(["-c", "pass"])
        assert not added & {"argparse", "gettext", "locale", "dataclasses", "inspect"}
        package = {m.removeprefix("hausnum.") for m in added if m.startswith("hausnum.")}
        assert package == self.loaded(fresh("main"), code)

    def test_bare_package_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, hausnum\n"
             "print(*sorted(m for m in sys.modules if m.startswith('hausnum')))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["hausnum"]
