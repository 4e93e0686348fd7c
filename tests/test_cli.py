import functools
import json
import subprocess
import sys

import pytest

from hausnum.cli import main
from hausnum.jsonio import topology_to_json
from hausnum.constructions import three_point_example


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

    def test_text_format(self, tmp_path, capsys):
        code, out = run_cli(capsys, "analyze", "--format", "text",
                            self.write_example(tmp_path))
        assert code == 0
        assert "hausdorff number: 3" in out


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

    def test_bad_points(self, capsys):
        code, _ = run_cli(capsys, "symbolic", "--verticals", "1",
                          "separable", "--points", "b:1/2,q:9")
        assert code == 2
        code, _ = run_cli(capsys, "symbolic", "--verticals", "zzz", "hnumber")
        assert code == 2


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
