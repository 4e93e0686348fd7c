"""The command-line front end: the plain argv reader against argparse.

``main`` reads plainly spelled argv itself and hands everything else to the
argparse parser that ``build_parser`` makes from the same grammar table.
``reference_parser`` is that parser written out by hand, as it was before the
table, so the table is checked too: the plain reader must give argparse's
namespace or decline, and help and usage errors must print argparse's text.
"""

import argparse
import sys

import pytest

from hausnum import cli
from hausnum.cli import _read_plain, build_parser, main
from hausnum.limits import ORACLE_MAX_POINTS, TABLE_MAX_POINTS

from conftest import run_main
from test_cli_output import CALLS


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hausnum",
        description="Hausdorff numbers of finite topologies: analysis, "
                    "enumeration, named constructions, symbolic spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="separation report for a topology file")
    analyze.add_argument("input", help="finite-topology/v1 JSON file")
    analyze.add_argument("--oracle", action="store_true",
                         help=f"cross-check with the exhaustive oracle (n <= {ORACLE_MAX_POINTS})")
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.set_defaults(func=cli._cmd_analyze)

    enum = sub.add_parser("enumerate", help="count topologies by Hausdorff number")
    enum.add_argument("n", type=int, help=f"point count (1..{TABLE_MAX_POINTS})")
    group = enum.add_mutually_exclusive_group()
    group.add_argument("--labeled", action="store_true",
                       help="text output: labeled total only")
    group.add_argument("--classes", action="store_true",
                       help="text output: homeomorphism-class total only")
    group.add_argument("--histogram", action="store_true",
                       help="text output: per-Hausdorff-number rows")
    enum.add_argument("--t0-only", action="store_true",
                      help="restrict counts to T0 topologies")
    enum.add_argument("--jobs", type=int, default=1,
                      help="accepted for compatibility; counting is serial")
    enum.add_argument("--cache-dir",
                      help="cache directory (default: $TOPO_CACHE_DIR or .topo-cache)")
    enum.add_argument("--format", choices=("json", "csv", "text"), default="json")
    enum.add_argument("--out", help="write the table here instead of stdout")
    enum.set_defaults(func=cli._cmd_enumerate)

    example = sub.add_parser("example", help="emit a named construction")
    example.add_argument("name",
                         help="three-point | four-point | two-block:N | doubled:N")
    example.add_argument("--verify", action="store_true",
                         help="check the construction's claims; nonzero exit on failure")
    example.add_argument("--format", choices=("json", "text"), default="json")
    example.add_argument("--out", help="write the topology JSON here")
    example.set_defaults(func=cli._cmd_example)

    symbolic = sub.add_parser("symbolic", help="query a doubled-interval space")
    symbolic.add_argument("--verticals", required=True,
                          help="number of stacked points, or 'omega'")
    symbolic.add_argument("--no-t1", action="store_true",
                          help="use the unpunctured (non-T1) variant")
    symbolic.add_argument("--format", choices=("json", "text"), default="json")
    symbolic.add_argument("--out", help="write the verdict here instead of stdout")
    symsub = symbolic.add_subparsers(dest="symbolic_command", required=True)
    sep = symsub.add_parser("separable", help="separability of a point set")
    sep.add_argument("--points", required=True,
                     help="comma-separated points, e.g. 'b:1/2,v:1'")
    symsub.add_parser("hnumber", help="symbolic Hausdorff number of the space")
    t1 = symsub.add_parser("t1", help="mutual exclusion test for a pair")
    t1.add_argument("--pair", nargs=2, required=True, metavar=("P", "Q"))
    symbolic.set_defaults(func=cli._cmd_symbolic)
    return parser


SPACE = ["symbolic", "--verticals"]

# Plainly spelled: the calls pinned in test_cli_output and every form the
# benchmark's mixes produce.
PLAIN = [[a.replace("{cache}", "c") for a in argv] for argv, _ in CALLS] + [
    ["analyze", "/tmp/q0-5.json"],
    ["analyze", "/tmp/q0-4-oracle.json", "--oracle"],
    ["example", "two-block:17", "--verify"],
    ["enumerate", "5", "--format", "json"],
    ["enumerate", "5", "--format", "json", "--jobs", "2"],
    ["enumerate", "4", "--format", "json", "--t0-only"],
    ["enumerate", "3", "--format", "json", "--cache-dir", "/tmp/cache"],
    ["enumerate", "3", "--format", "csv", "--cache-dir", "/tmp/cache"],
    SPACE + ["omega", "separable", "--points", "b:1/2,v:3,b:1/3"],
    SPACE + ["2", "--no-t1", "separable", "--points", "v:1,v:2"],
    SPACE + ["5", "hnumber"],
    SPACE + ["1", "--no-t1", "t1", "--pair", "v:1", "b:1/2"],
    # reordered options and values that look like names
    ["enumerate", "--cache-dir", "c", "--t0-only", "4", "--format", "text", "--histogram"],
    ["analyze", "--format", "text", "--oracle", "space.json"],
    ["example", "--verify", "four-point"],
    ["example", "enumerate"],
    SPACE + ["t1", "--format", "text", "t1", "--pair", "b:1/3", "v:1"],
    SPACE + ["2", "separable", "--points", "hnumber"],
    ["analyze", ""],
    ["enumerate", "+3"],
]

# Left to argparse: help, abbreviations, ``--opt=value``, repeated options,
# missing or surplus values, bad types and choices, ``--``, and ``symbolic``
# options after the nested command.  Some parse, most are usage errors.
DECLINED = [
    [], ["-h"], ["--help"], ["bogus"], ["analyze"], ["analyze", "-h"],
    ["analyze", "x.json", "--help"], ["enumerate", "-h", "3"],
    ["example", "three-point", "--verif"], ["enumerate", "3", "--cache", "c"],
    ["enumerate", "3", "--cache-dir=c"], ["example", "three-point", "--format=text"],
    ["example", "three-point", "--verify", "--verify"],
    ["enumerate", "3", "--format", "csv", "--format", "json"],
    ["analyze", "x.json", "--oracle", "--oracle"],
    ["enumerate", "3", "--labeled", "--classes"],
    ["enumerate", "3", "--histogram", "--format", "text", "--labeled"],
    ["enumerate"], ["enumerate", "x"], ["enumerate", "3", "4"], ["enumerate", "-1"],
    ["enumerate", "3", "--jobs"], ["enumerate", "3", "--jobs", "-2"],
    ["enumerate", "3", "--jobs", "two"], ["enumerate", "3", "--format", "xml"],
    ["example", "three-point", "--format", "csv"], ["example", "three-point", "--out"],
    ["enumerate", "3", "--", "--t0-only"], ["enumerate", "--", "3"], ["analyze", "-"],
    ["example", "three-point", "-x"], ["--format", "json", "example", "three-point"],
    ["symbolic", "hnumber"], ["symbolic", "hnumber", "--verticals", "2"],
    SPACE + ["2"], SPACE + ["2", "bogus"], SPACE + ["2", "hnumber", "--format", "text"],
    SPACE + ["2", "hnumber", "--no-t1"], SPACE + ["2", "separable"],
    SPACE + ["2", "separable", "--points", "v:1", "--points", "v:2"],
    SPACE + ["2", "t1", "--pair", "v:1"], SPACE + ["2", "t1", "--pair", "v:1", "-1"],
    SPACE + ["2", "t1", "--pair", "v:1", "v:2", "v:3"],
    SPACE + ["2", "--verticals", "3", "hnumber"], ["symbolic", "--vert", "2", "hnumber"],
    ["symbolic", "--verticals=2", "hnumber"], SPACE + ["-2", "hnumber"],
    SPACE + ["2", "hnumber", "-h"], SPACE + ["2", "t1", "--help"],
]


def reference(argv):
    """argparse's namespace for ``argv``, or None where it exits."""
    namespace, _, _ = run_main(argv, lambda argv: vars(reference_parser().parse_args(argv)))
    return namespace if isinstance(namespace, dict) else None


@pytest.mark.parametrize("argv", PLAIN)
def test_plain_argv_is_read_as_argparse_reads_it(argv):
    plain = _read_plain(argv)
    assert plain is not None
    assert vars(plain) == reference(argv) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", DECLINED)
def test_other_argv_is_left_to_argparse(argv):
    assert _read_plain(argv) is None
    parsed = reference(argv)
    if parsed is not None:
        assert vars(build_parser().parse_args(argv)) == parsed


HELP_AND_ERRORS = [argv for argv in DECLINED if reference(argv) is None]


@pytest.mark.parametrize("argv", HELP_AND_ERRORS)
def test_help_and_usage_errors_are_argparse_text(argv):
    got = run_main(argv)
    assert got == run_main(argv, reference_parser().parse_args)
    assert got[0] in (0, 2) and got[1] + got[2]


def test_help_and_error_corpus_covers_every_parser():
    assert {"analyze", "enumerate", "example", "symbolic"} <= {a[0] for a in HELP_AND_ERRORS if a}
    assert [] in HELP_AND_ERRORS and ["--help"] in HELP_AND_ERRORS


@pytest.mark.parametrize("argv", [["example", "three-point", "--format", "text"],
                                  ["example", "three-point", "--format=text"]])
def test_main_reads_sys_argv(argv, monkeypatch, capsys):
    expected = run_main(list(argv))
    monkeypatch.setattr(sys, "argv", ["hausnum", *argv])
    assert main() == 0
    captured = capsys.readouterr()
    assert (0, captured.out, captured.err) == expected
    assert captured.out.startswith("three-point: n=3, opens:")
