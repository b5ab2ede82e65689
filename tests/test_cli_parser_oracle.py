"""The CLI's command-line parser against the argparse parser it replaced.

_build_parser below is the argparse grammar cli.py used before its verb
table parsed command lines, kept verbatim as the reference.  Every valid
argv must reach the handler with the namespace argparse built; every
invalid argv must exit 2 under both.  The one intended difference: option
prefixes (--max for --max-deg) are no longer accepted.
"""

import argparse
import itertools

import pytest

from toricstacks import cli


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricstacks",
        description="Exact toric intersection theory on fan JSON files.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, help_text):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("input", help="fan JSON file")
        p.add_argument("--json", action="store_true",
                       help="emit the JSON report instead of text")
        return p

    add("validate", "check the fan axioms")
    p = add("subdivide", "star subdivision of one maximal cone")
    p.add_argument("--cone", type=int, default=0,
                   help="0-based index into max_cones (default 0)")
    add("cox", "character group, weights, kernel and collections")
    p = add("chow-stack", "graded ring presentation and piece structures")
    p.add_argument("--max-deg", type=int, default=4)
    p = add("chow-groups", "Chow groups of the toric variety")
    p.add_argument("--k", type=int, default=None,
                   help="single degree; omit for all")
    add("ktheory-stack", "group algebra presentation")
    p = add("verify-vanishing", "exceptional comparison for one cone")
    p.add_argument("--cone", type=int, default=0)
    p.add_argument("--max-deg", type=int, default=4)
    p = add("verify-k-vanishing", "boxed K comparison for one cone")
    p.add_argument("--cone", type=int, default=0)
    p.add_argument("--box", type=int, default=3)
    p = add("strongness", "per-chart divisor strongness check")
    p.add_argument("--ray", type=int, default=None,
                   help="0-based divisor ray (default: divisor_ray key)")
    p.add_argument("--bound", type=int, default=20)
    return parser


REFERENCE = _build_parser()
VALUES = ("0", "-1", "7", "12")


def reference_exit(argv) -> int:
    try:
        REFERENCE.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return 0


@pytest.fixture
def parsed(monkeypatch):
    """Replace every handler with one that records the namespace it gets;
    returns the list of recorded namespaces, as dicts."""
    seen = []

    def record(ns):
        seen.append(dict(vars(ns)))
        return {}, [], 0

    for verb, (_, help_text, options) in list(cli.VERBS.items()):
        monkeypatch.setitem(cli.VERBS, verb, (record, help_text, options))
    return seen


def option_tokens(option: str, value: str, form: str) -> list:
    return ["--%s=%s" % (option, value)] if form == "=" \
        else ["--" + option, value]


def valid_argvs():
    """Every verb, each option given or omitted, before or after the input
    (or one on each side), as --opt N or --opt=N, with zero, negative and
    positive values, given once or twice, and --json absent, first, last
    or next to the input."""
    for verb, (_, _, options) in cli.VERBS.items():
        names = list(options)
        for given in itertools.product((False, True), repeat=len(names)):
            opts = [name for name, on in zip(names, given) if on]
            for split, form, shift, repeat, json_at in itertools.product(
                    range(len(opts) + 1), (" ", "="), range(len(VALUES)),
                    (False, True), (None, 0, -1, "input")):
                groups = []
                for i, name in enumerate(opts):
                    value = VALUES[(shift + i) % len(VALUES)]
                    tokens = option_tokens(name, value, form)
                    if repeat:
                        tokens = option_tokens(name, "5", " ") + tokens
                    groups.append(tokens)
                rest = sum(groups[:split], []) + ["fan.json"] \
                    + sum(groups[split:], [])
                if json_at == "input":
                    i = rest.index("fan.json")
                    rest[i:i + 1] = ["fan.json", "--json"]
                elif json_at == 0:
                    rest.insert(0, "--json")
                elif json_at == -1:
                    rest.append("--json")
                yield [verb] + rest


def test_valid_argvs_parse_as_argparse_did(parsed, capsys):
    argvs = list(valid_argvs())
    assert len(argvs) > 1000
    for argv in argvs:
        assert cli.run(argv) == 0, argv
        assert parsed.pop() == vars(REFERENCE.parse_args(argv)), argv
    capsys.readouterr()


INVALID = [
    [],
    ["--json"],
    ["frobnicate", "fan.json"],
    ["--json", "validate", "fan.json"],
    ["chow-groups"],
    ["chow-groups", "--k", "2"],
    ["validate", "--json"],
    ["chow-groups", "a.json", "b.json"],
    ["validate", "fan.json", "--cone", "0"],
    ["verify-vanishing", "fan.json", "--box", "3"],
    ["verify-k-vanishing", "fan.json", "--max-deg", "3"],
    ["strongness", "fan.json", "--k", "1"],
    ["chow-groups", "fan.json", "--nope"],
    ["chow-groups", "fan.json", "-k", "2"],
    ["chow-groups", "fan.json", "--k"],
    ["chow-groups", "fan.json", "--k", "two"],
    ["chow-groups", "fan.json", "--k", "1.5"],
    ["chow-groups", "fan.json", "--k="],
    ["chow-groups", "fan.json", "--k=x"],
    ["subdivide", "fan.json", "--cone", "--json"],
    ["validate", "fan.json", "--json=1"],
]


@pytest.mark.parametrize("argv", INVALID)
def test_invalid_argvs_exit_2_under_both(argv, parsed, capsys):
    assert reference_exit(argv) == 2
    capsys.readouterr()
    assert cli.run(argv) == 2
    assert parsed == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: toricstacks ")
    assert "\ntoricstacks: error: " in captured.err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["cox", "-h"], ["verify-vanishing", "fan.json",
                                        "--help"]])
def test_help_exits_0_under_both(argv, parsed, capsys):
    assert reference_exit(argv) == 0
    capsys.readouterr()
    assert cli.run(argv) == 0
    assert parsed == []
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: toricstacks ")
    assert captured.err == ""


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_verb_help_shows_the_argparse_defaults(verb, capsys):
    assert cli.run([verb, "-h"]) == 0
    # usage, the verb's line, --json, then one "--opt N  default: d" row
    # per option
    rows = capsys.readouterr().out.splitlines()[3:]
    shown = {opt[2:].replace("-", "_"): value
             for opt, _, _, value in map(str.split, rows)}
    defaults = vars(REFERENCE.parse_args([verb, "fan.json"]))
    assert shown == {name: "none" if value is None else str(value)
                     for name, value in defaults.items()
                     if name not in ("verb", "input", "json")}


def test_option_prefixes_are_not_accepted(parsed, capsys):
    argv = ["verify-vanishing", "x", "--max", "3"]
    assert REFERENCE.parse_args(argv).max_deg == 3
    assert cli.run(argv) == 2
    assert parsed == []
    capsys.readouterr()
