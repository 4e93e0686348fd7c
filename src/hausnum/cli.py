"""Command-line front end.

One binary, four subcommands (analyze, enumerate, example, symbolic), no
configuration files: flags plus the TOPO_CACHE_DIR environment variable.
JSON and CSV outputs are byte-stable for fixed inputs and flags; text output
is for humans and carries no stability guarantee.

Exit codes: 0 on success (queries that answer "no" still succeed), 1 when a
requested check fails (--verify violations, --oracle disagreement), 2 on
usage, parse, or validation errors, 120 when stdout is closed or its reader
has gone away (the code the interpreter gives a failed final flush).
``run``, the entry of ``python -m hausnum`` and the ``hausnum`` script, ends
the process with that code without the interpreter's final garbage
collection and teardown, unless a tracer, profiler, ``-i`` prompt, other
thread or calling function could still observe it.

Each handler imports the package modules it uses in its own body, so a call
loads only what its subcommand needs; ``TestImportSet`` in the tests pins
which modules that is.  The grammar is declared once, in ``COMMANDS``.
``main`` reads a plainly spelled command line from it directly and hands any
other (``--help``, usage errors, abbreviations, ``--opt=value``, repeated
options) to the argparse parser that ``build_parser`` makes from it, so
argparse is imported only for help and errors.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from .errors import BadParameter, TopologyError
from .limits import ORACLE_MAX_POINTS, TABLE_MAX_POINTS

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2
EXIT_STDOUT_LOST = 120


class _StdoutLost(Exception):
    """stdout is closed, or the reader of its pipe has gone away."""


def _emit(text: str, out: "str | None") -> None:
    """Write ``text`` to the file ``out``, or to stdout if None."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise BadParameter(f"cannot write {out}: {exc.strerror or exc}") from exc
    elif sys.stdout is None:  # fd 1 was closed when the process started
        raise _StdoutLost
    else:
        try:
            sys.stdout.write(text)
        except OSError:  # e.g. the reader of a pipe has gone away
            raise _StdoutLost from None


def _write(args, doc: dict, text) -> None:
    """``doc`` as canonical JSON, or as ``text(doc)`` under ``--format text``, to ``--out``."""
    from .jsonio import dumps_canonical

    _emit(dumps_canonical(doc) if args.format == "json" else text(doc), args.out)


def _report_text(report: dict) -> str:
    from .separation import AxiomsReport

    lines = [f"points: {report['n']}",
             f"hausdorff number: {report['hausdorff_number']}",
             f"largest non-separable set: {set(report['largest_nonseparable'])}"]
    for key in AxiomsReport._fields:
        lines.append(f"{key}: {'yes' if report[key] else 'no'}")
    if "oracle_hausdorff_number" in report:
        lines.append(f"oracle hausdorff number: {report['oracle_hausdorff_number']}")
        lines.append(f"oracle agrees: {'yes' if report['oracle_agrees'] else 'no'}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    from .jsonio import load_topology
    from .separation import analysis_report, hausdorff_number_oracle

    topology, _ = load_topology(args.input)
    report = analysis_report(topology)
    status = EXIT_OK
    if args.oracle:
        oracle = hausdorff_number_oracle(topology)
        report["oracle_hausdorff_number"] = oracle.value
        report["oracle_agrees"] = oracle.value == report["hausdorff_number"]
        if not report["oracle_agrees"]:
            status = EXIT_CHECK_FAILED
    _write(args, report, _report_text)
    return status


def _table_text(table, mode: str) -> str:
    if mode == "labeled":
        return f"total {table.labeled_total}\n"
    if mode == "classes":
        return f"total {table.class_total}\n"
    lines = [f"topologies on {table.n} points"
             + (" (T0 only)" if table.t0_only else "")]
    lines.append(f"labeled total: {table.labeled_total}")
    lines.append(f"class total: {table.class_total}")
    lines.append(f"t0 labeled count: {table.t0_labeled_count}")
    if mode == "histogram":
        for k in sorted(table.rows):
            labeled, classes = table.rows[k]
            lines.append(f"H={k}: labeled {labeled}, classes {classes}")
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> int:
    from .enumeration import count_by_hausdorff
    from .jsonio import dumps_canonical

    if args.jobs < 1:
        raise BadParameter(f"--jobs must be >= 1, got {args.jobs}")
    table = count_by_hausdorff(args.n, jobs=args.jobs, cache_dir=args.cache_dir,
                               t0_only=args.t0_only)
    if args.format == "json":
        text = dumps_canonical(table.to_dict())
    elif args.format == "csv":
        text = table.to_csv()
    else:
        mode = ("labeled" if args.labeled else "classes" if args.classes
                else "histogram" if args.histogram else "totals")
        text = _table_text(table, mode)
    _emit(text, args.out)
    return EXIT_OK


def _verification_checks(name: str, topology) -> list[dict]:
    from .constructions import check_claims
    from .separation import hausdorff_number, hausdorff_number_oracle

    checks = [{"check": label, "passed": passed}
              for label, passed in check_claims(name.split(":")[0], topology)]
    if topology.n <= ORACLE_MAX_POINTS:
        oracle = hausdorff_number_oracle(topology).value
        checks.append({"check": "oracle agrees with closed form",
                       "passed": oracle == hausdorff_number(topology).value})
    return checks


def _example_text(doc: dict) -> str:
    opens = ", ".join("{" + ",".join(map(str, u)) + "}" for u in doc["opens"])
    return f"{doc['name']}: n={doc['n']}, opens: {opens}\n"


def _cmd_example(args) -> int:
    from .constructions import build_example
    from .jsonio import dumps_canonical, topology_to_dict

    name, topology = build_example(args.name)
    doc = topology_to_dict(topology, name=name)
    if not args.verify:
        _write(args, doc, _example_text)
        return EXIT_OK

    checks = _verification_checks(name, topology)
    passed = all(c["passed"] for c in checks)
    verification = {"name": name, "passed": passed, "checks": checks,
                    "topology": doc}
    if args.out:
        _emit(dumps_canonical(doc), args.out)
    if args.format == "json":
        _emit(dumps_canonical(verification), None)
    else:
        lines = [f"{name}: {'PASS' if passed else 'FAIL'}"]
        lines += [f"  [{'ok' if c['passed'] else 'FAIL'}] {c['check']}" for c in checks]
        _emit("\n".join(lines) + "\n", None)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_symbolic(args) -> int:
    from .symbolic import (
        BugEyedSpace,
        _parse_verticals,
        hausdorff_number_symbolic,
        parse_point,
        parse_points,
        separable,
        t1_status,
    )

    space = BugEyedSpace(_parse_verticals(args.verticals), t1_variant=not args.no_t1)

    if args.symbolic_command == "separable":
        verdict = separable(space, parse_points(args.points))
        doc = verdict.to_dict()
    elif args.symbolic_command == "hnumber":
        doc = {"hausdorff_number": hausdorff_number_symbolic(space).to_dict()}
    else:  # t1
        p, q = map(parse_point, args.pair)
        doc = t1_status(space, p, q).to_dict(p, q)

    _write(args, doc, _symbolic_text)
    return EXIT_OK


def _symbolic_text(doc: dict) -> str:
    if "separable" in doc:
        if doc["separable"]:
            lines = ["separable; witness:"]
            lines += [f"  {w['point']} -> {w['neighborhood']}" for w in doc["witness"]]
            return "\n".join(lines) + "\n"
        return f"non-separable: {doc['certificate']['description']}\n"
    if "hausdorff_number" in doc:
        h = doc["hausdorff_number"]
        value = h["value"] if h["kind"] == "finite" else "omega_1"
        return f"hausdorff number: {value}\n"
    if doc["t1"]:
        return "t1 pair: yes\n"
    return f"t1 pair: no ({doc['explanation']})\n"


# The command-line grammar, declared once.  A command is (help, handler,
# arguments, nested commands); an argument is (name or flag, argparse keyword
# arguments), and a list of arguments is a mutually exclusive group; nested
# commands are (destination, commands) and must be given.  ``build_parser``
# builds argparse from this table, and ``_read_plain`` reads plainly spelled
# argv from it.
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})

COMMANDS = {
    "analyze": ("separation report for a topology file", _cmd_analyze, [
        ("input", {"help": "finite-topology/v1 JSON file"}),
        ("--oracle", {"action": "store_true",
                      "help": f"cross-check with the exhaustive oracle (n <= {ORACLE_MAX_POINTS})"}),
        _FORMAT,
        ("--out", {"help": "write the report here instead of stdout"}),
    ], None),
    "enumerate": ("count topologies by Hausdorff number", _cmd_enumerate, [
        ("n", {"type": int, "help": f"point count (1..{TABLE_MAX_POINTS})"}),
        [("--labeled", {"action": "store_true",
                        "help": "text output: labeled total only"}),
         ("--classes", {"action": "store_true",
                        "help": "text output: homeomorphism-class total only"}),
         ("--histogram", {"action": "store_true",
                          "help": "text output: per-Hausdorff-number rows"})],
        ("--t0-only", {"action": "store_true",
                       "help": "restrict counts to T0 topologies"}),
        ("--jobs", {"type": int, "default": 1,
                    "help": "accepted for compatibility; counting is serial"}),
        ("--cache-dir",
         {"help": "cache directory (default: $TOPO_CACHE_DIR or .topo-cache)"}),
        ("--format", {"choices": ("json", "csv", "text"), "default": "json"}),
        ("--out", {"help": "write the table here instead of stdout"}),
    ], None),
    "example": ("emit a named construction", _cmd_example, [
        ("name", {"help": "three-point | four-point | two-block:N | doubled:N"}),
        ("--verify", {"action": "store_true",
                      "help": "check the construction's claims; nonzero exit on failure"}),
        _FORMAT,
        ("--out", {"help": "write the topology JSON here"}),
    ], None),
    "symbolic": ("query a doubled-interval space", _cmd_symbolic, [
        ("--verticals", {"required": True,
                         "help": "number of stacked points, or 'omega'"}),
        ("--no-t1", {"action": "store_true",
                     "help": "use the unpunctured (non-T1) variant"}),
        _FORMAT,
        ("--out", {"help": "write the verdict here instead of stdout"}),
    ], ("symbolic_command", {
        "separable": ("separability of a point set", None, [
            ("--points", {"required": True,
                          "help": "comma-separated points, e.g. 'b:1/2,v:1'"}),
        ], None),
        "hnumber": ("symbolic Hausdorff number of the space", None, [], None),
        "t1": ("mutual exclusion test for a pair", None, [
            ("--pair", {"nargs": 2, "required": True, "metavar": ("P", "Q")}),
        ], None),
    })),
}


def _print_help(parser, file=None) -> None:
    """argparse's ``print_help``, to stdout; a lost stdout ends in exit 120, silently."""
    _emit(parser.format_help(), None)
    try:
        sys.stdout.flush()
    except OSError:
        # the text is still buffered; let the final flush send it nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _StdoutLost from None


def _add_commands(parser, dest: str, commands: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, handler, arguments, nested) in commands.items():
        command = sub.add_parser(name, help=help_text)
        for argument in arguments:
            if isinstance(argument, list):
                group = command.add_mutually_exclusive_group()
                for flag, kwargs in argument:
                    group.add_argument(flag, **kwargs)
            else:
                command.add_argument(argument[0], **argument[1])
        if nested is not None:
            _add_commands(command, *nested)
        if handler is not None:
            command.set_defaults(func=handler)


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of ``COMMANDS``, for help and usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        print_help = _print_help

    parser = Parser(
        prog="hausnum",
        description="Hausdorff numbers of finite topologies: analysis, "
                    "enumeration, named constructions, symbolic spaces.")
    _add_commands(parser, "command", COMMANDS)
    return parser


def _convert(kwargs: dict, token: str):
    """``token`` as argparse stores it; ValueError where argparse would not."""
    if token.startswith("-"):
        raise ValueError(token)
    value = kwargs.get("type", str)(token)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(token)
    return value


def _read_command(tokens: list, dest: str, commands: dict, values: dict) -> bool:
    """Read ``tokens``, a command name and its arguments, into ``values``.

    True if every token is plainly spelled: exact command and option names,
    each option at most once, values that do not start with ``-``, no
    missing or surplus argument.  Otherwise False, and argparse reads them.
    """
    if not tokens or tokens[0] not in commands:
        return False
    values[dest] = tokens[0]
    _, handler, arguments, nested = commands[tokens[0]]
    if handler is not None:
        values["func"] = handler
    options, positionals, groups = {}, [], []
    for argument in arguments:
        group = argument if isinstance(argument, list) else [argument]
        groups.append([name for name, _ in group])
        for name, kwargs in group:
            key = name.lstrip("-").replace("-", "_")
            values[key] = False if kwargs.get("action") else kwargs.get("default")
            if name.startswith("-"):
                options[name] = key, kwargs
            else:
                positionals.append((key, kwargs))

    seen = set()
    i = 1
    try:
        while i < len(tokens):
            token = tokens[i]
            if token in options and token not in seen:
                seen.add(token)
                key, kwargs = options[token]
                if kwargs.get("action"):
                    values[key] = True
                    i += 1
                    continue
                count = kwargs.get("nargs", 1)
                given = [_convert(kwargs, t) for t in tokens[i + 1:i + 1 + count]]
                if len(given) != count:
                    return False
                values[key] = given if "nargs" in kwargs else given[0]
                i += 1 + count
            elif token.startswith("-"):
                return False
            elif positionals:
                key, kwargs = positionals.pop(0)
                values[key] = _convert(kwargs, token)
                i += 1
            else:
                break
    except ValueError:
        return False
    if (positionals
            or any(kwargs.get("required") and flag not in seen
                   for flag, (_, kwargs) in options.items())
            or any(len(seen.intersection(group)) > 1 for group in groups)):
        return False
    if nested is None:
        return i == len(tokens)
    return _read_command(tokens[i:], *nested, values)


def _read_plain(argv: list) -> "SimpleNamespace | None":
    """The namespace argparse gives for plainly spelled ``argv``, or None."""
    values = {}
    if _read_command(argv, "command", COMMANDS, values):
        return SimpleNamespace(**values)
    return None


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` if None); returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_plain(list(argv)) or build_parser().parse_args(argv)
        return args.func(args)
    except TopologyError as exc:
        sys.stderr.write(f"error ({exc.code}): {exc}\n")
        return EXIT_ERROR
    except _StdoutLost:
        return EXIT_STDOUT_LOST


def _outermost(frame) -> bool:
    """True if only module code and ``runpy`` lie below ``frame``.

    That holds when ``python -m``, a console script or a ``runpy`` wrapper
    runs the entry.  A debugger, profiler or shell that runs the module does
    so from a function of its own, and gets ``SystemExit`` back.
    """
    while frame is not None:
        if frame.f_code.co_name != "<module>" and frame.f_globals.get("__name__") != "runpy":
            return False
        frame = frame.f_back
    return True


def run() -> None:
    """The process entry: run ``main`` and end the process with its exit code.

    The interpreter's own exit waits for other threads, runs the atexit
    callbacks, flushes stdout and stderr, and then collects and tears down
    every loaded module (10-13 ms of ``enumerate 3`` on a 2-vCPU VM).  When
    nothing could see that last part (no tracer, profiler or ``-i`` prompt,
    no other thread to wait for, no calling function), ``run`` runs the
    callbacks, flushes both streams and ends with ``os._exit``.  Otherwise,
    or if a flush fails, it calls ``sys.exit``, and the interpreter reports
    the failed flush as before (exit 120).
    """
    code = main()
    threading = sys.modules.get("threading")
    if (sys.gettrace() is None and sys.getprofile() is None and not sys.flags.inspect
            and (threading is None or threading.active_count() == 1)
            and _outermost(sys._getframe(1))):
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:  # e.g. a closed pipe: the interpreter's exit reports it
            sys.exit(code)
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
