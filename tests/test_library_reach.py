"""Every public name in src/ is something the program runs.

A public name is a top-level function or a class method of a package
module whose dotted name has no part starting with "_".  Under
sys.setprofile, the pinned CLI argvs of bench/expected/cli_fixtures.json
run in-process, and validate_fan, cox, chow_groups in every degree,
star_subdivision and is_refinement run on a subdivided P^1 x P^1 fan,
built with make_cone as the fan_complete benchmark builds its fans.
Every public name must be called, except the names in KEPT, each kept for
the reason given there.  A helper that only tests read belongs in the
tests.

Calls are matched by (file, co_firstlineno) against each def's line and
its decorators' lines, since a decorated function's code starts at its
first decorator; Python 3.10 code objects carry no qualified name.
"""

import ast
import contextlib
import io
import json
import sys
from itertools import product
from pathlib import Path

from test_chow_certificate import clear_package_caches
from toricstacks.cli import run
from toricstacks.cox import cox
from toricstacks.fan import Fan, chow_groups, is_refinement, make_cone, \
    star_subdivision, validate_fan

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toricstacks"
SPANS = ROOT / "bench" / "spans.py"

# Names the traced benchmark pass wraps by name (TRACED in bench/spans.py),
# though no verdict calls them; ROADMAP item 1 drops them from TRACED.
# star_quotient_fan is the orbit fan of any fan's ray, built by the one
# builder exceptional_stratum builds L with; no verdict reads a general
# fan's orbit fan yet, and ROADMAP item 14 is its first caller.
TRACED_ONLY = ("graded.induced_map", "graded.is_iso_up_to",
               "fan.star_quotient_fan")

KEPT = {
    "intlinalg.snf": "acceptance criterion 8 and the sympy oracle check the "
                     "full Smith elimination through it; smith_basis runs "
                     "the same _snf",
    "chow.preimage_check": "acceptance criterion 8's property suites "
                           "check the paper's claim about the preimage "
                           "with it",
    "fan.preimage_orbit_closure": "acceptance criterion 8's property "
                                  "suites check the preimage with it, "
                                  "through preimage_check",
    "fan.minimal_containing_cone": "acceptance criterion 8's property "
                                   "suites check the preimage with it, "
                                   "through preimage_orbit_closure",
    "fan.h_vector": "the free-rank oracle of every Chow piece; ROADMAP "
                    "item 7 prints it",
    "ktheory.BoxedQuotient.monomials": "the traced boxed_quotient span "
                                       "reads it (bench/spans.py); ROADMAP "
                                       "item 2 removes the boxed path",
    "ktheory.BoxedQuotient.relation_columns": "the traced boxed_quotient "
                                              "span reads it "
                                              "(bench/spans.py); ROADMAP "
                                              "item 2 removes the boxed "
                                              "path",
    "ktheory.BoxedQuotient.group": "acceptance criteria 6 and 9 read it; "
                                   "ROADMAP item 2 removes the boxed path",
    "ktheory.BoxedQuotient.contains": "acceptance criterion 6 reads it; "
                                      "ROADMAP item 2 removes the boxed "
                                      "path",
    "cli.main": "the console entry point; it runs only in a fresh process",
    "intlinalg.AbelianGroup.lift_coords": "its only caller in src/ is "
                                          "graded.induced_map, which no "
                                          "verdict calls and TRACED wraps; "
                                          "it leaves with induced_map "
                                          "(ROADMAP item 1)",
    "chow.chow_ring_stack": "acceptance criterion 3 reads both rings with "
                            "it, and verify_vanishing's unidentified path "
                            "calls it; no pinned argv is unidentified",
}
KEPT.update((name, "TRACED in bench/spans.py wraps it by name")
            for name in TRACED_ONLY)


def public_defs() -> dict:
    """(file name, line) -> dotted public name, for each def's line and
    its decorators' lines."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs = [(path.stem, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [("%s.%s" % (path.stem, node.name), item)
                        for item in node.body if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                continue
            for prefix, fn in defs:
                name = "%s.%s" % (prefix, fn.name)
                if any(part.startswith("_") for part in name.split(".")):
                    continue
                for line in [fn.lineno] + [d.lineno
                                           for d in fn.decorator_list]:
                    out[(path.name, line)] = name
    return out


def traced_names() -> set:
    """The dotted names in TRACED of bench/spans.py, read without
    importing it."""
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return {"%s.%s" % (module, name) for module, names
                    in ast.literal_eval(node.value).items()
                    for name in names}
    raise AssertionError("bench/spans.py defines no TRACED")


def subdivided_p1_squared() -> tuple:
    f = Fan(2, [make_cone(2, [(a, 0), (0, b)])
                for a, b in product((1, -1), repeat=2)])
    return f, star_subdivision(f, f.cone({0, 1}))


def exercise() -> None:
    pins = json.loads((ROOT / "bench" / "expected" / "cli_fixtures.json")
                      .read_text("utf-8"))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for pin in pins:
            run(pin["argv"])
    f, f2 = subdivided_p1_squared()
    validate_fan(f2)
    cox(f2)
    for k in range(f2.ambient_rank + 1):
        chow_groups(f2, k)
    is_refinement(f2, f)


def called_defs() -> set:
    """(file name, first line) of every package code object that ran."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    # A memoised function whose cache is warm returns without running.
    clear_package_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exercise()
    finally:
        sys.setprofile(previous)
    files = {mod.__file__: Path(mod.__file__).name
             for name, mod in sys.modules.items()
             if name.startswith("toricstacks.")}
    return {(files[name], line) for name, line in seen if name in files}


def test_every_public_name_is_called_or_kept(monkeypatch):
    monkeypatch.chdir(ROOT)
    defs = public_defs()
    called = {defs[key] for key in called_defs() if key in defs}
    never = set(defs.values()) - called
    assert never == set(KEPT), (
        "called but kept: %s; never called and not kept: %s"
        % (sorted(set(KEPT) - never), sorted(never - set(KEPT))))


def test_kept_traced_names_are_traced():
    missing = set(TRACED_ONLY) - traced_names()
    assert not missing, "kept for TRACED, which no longer names %s" \
        % sorted(missing)


def test_every_traced_name_resolves_in_src():
    # A module's name resolves when the module defines it at top level, or
    # imports it from a package module where it resolves.
    top, imported = {}, {}
    for path in SRC.glob("*.py"):
        body = ast.parse(path.read_text(), str(path)).body
        top[path.stem] = {node.name for node in body if isinstance(
            node, (ast.FunctionDef, ast.ClassDef))}
        imported[path.stem] = {
            alias.asname or alias.name: node.module for node in body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}

    def resolves(module, attr):
        return attr in top.get(module, ()) or (
            attr in imported.get(module, ())
            and resolves(imported[module][attr], attr))

    for name in sorted(traced_names()):
        module, _, attr = name.partition(".")
        assert resolves(module, attr), name
