"""What a CLI process loads, and the records it builds.

Each verb imports the layers it runs when it runs, so a process loads only
those modules, and no verb loads argparse.  Records are typing.NamedTuple
classes (tuples, with their field order pinned here), except the one with
fields filled on first read, which is a plain class; no package module
imports dataclasses.  Only intlinalg builds a matrix with no columns
(from_columns).
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toricstacks"
SQUARE = json.loads((ROOT / "fixtures" / "sigma_square.json").read_text())

BASE = {"toricstacks", "toricstacks.cli", "toricstacks.fan",
        "toricstacks.intlinalg"}
COX = BASE | {"toricstacks.cox"}
CHOW = COX | {"toricstacks.graded", "toricstacks.chow"}
K = COX | {"toricstacks.ktheory"}
LOADED = {
    "validate": BASE,
    "subdivide": BASE,
    "cox": COX,
    "strongness": COX,
    "chow-stack": CHOW,
    "chow-groups": BASE,
    "verify-vanishing": CHOW,
    "ktheory-stack": K,
    "verify-k-vanishing": K,
}

# Run cli.run on argv, then print its exit code, the package modules the
# process has loaded and whether it has loaded argparse.
PROBE = """
import contextlib, io, json, sys
from toricstacks import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "toricstacks"),
                  "argparse" in sys.modules]))
"""


def src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("verb", sorted(LOADED))
def test_verb_loads_only_its_layers(verb, tmp_path):
    # strongness needs a divisor ray, and free weights: X(G) of the square
    # cone has torsion.  Its free weight block is (1, -1, 1, -1).
    fan = dict(SQUARE, divisor_ray=0, weights=[[1, -1, 1, -1]])
    path = tmp_path / "sigma_square.json"
    path.write_text(json.dumps(fan))
    done = subprocess.run([sys.executable, "-c", PROBE, verb, str(path)],
                          env=src_env(), capture_output=True, text=True,
                          check=True)
    code, modules, has_argparse = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    assert set(modules) == LOADED[verb]
    assert not has_argparse


def test_help_lists_every_verb():
    done = subprocess.run([sys.executable, "-m", "toricstacks", "-h"],
                          env=src_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    listed = {line.split()[0] for line in done.stdout.splitlines()[1:]}
    assert listed == set(LOADED)


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_only_intlinalg_builds_empty_matrices():
    # A matrix with no columns is built by intlinalg.from_columns alone.
    for path in sorted(SRC.glob("*.py")):
        if path.name != "intlinalg.py":
            assert "tuple(() for" not in path.read_text(), path.name


# (module, record -> field order), layer by layer.  fan's ExceptionalStratum,
# the reduction both verifiers start from, is listed just before their records.
RECORDS = (
    ("intlinalg", {
        "AbelianGroup": ("ambient_rank", "free_rank", "torsion",
                         "projection", "lift"),
    }),
    ("fan", {
        "FanViolation": ("first", "second", "reason"),
        "FanReport": ("ok", "violations"),
        "StarQuotient": ("fan", "projection", "ray_index", "pairs",
                         "dropped"),
        "OrbitRelationDatum": ("tau_rays", "sigma_rays", "m_tau_basis",
                               "pairings"),
    }),
    ("cox", {
        "CoxData": ("char_group", "weights", "kernel",
                    "primitive_collections"),
        "ChartReport": ("max_cone", "invertible", "in_span", "min_power"),
    }),
    ("graded", {
        "GradedPresentation": ("n_vars", "linear_gens", "homogeneous_gens"),
        "RingMap": ("source", "target", "substitution"),
        "Certification": ("ok", "witness"),
    }),
    ("fan", {
        "ExceptionalStratum": ("subdivision", "star_ray", "star_index",
                               "quotient", "surviving", "dst"),
    }),
    ("chow", {
        "Comparison": ("stratum", "source", "target", "map", "extra_row",
                       "verdicts", "source_pieces"),
        "VanishingReport": ("cone_rays", "star_ray", "max_deg",
                            "identified", "failure", "extra_row",
                            "verdicts", "pieces", "point_class",
                            "conclusion"),
        "PreimageReport": ("star_ray", "preimage", "ok"),
    }),
    ("ktheory", {
        "GroupAlgebraPresentation": ("group", "generator_images",
                                     "ideal_gens"),
        "BoxedQuotient": ("presentation", "box_radius", "window_radius",
                          "window_monomials", "window_lattice",
                          "window_group", "stabilized"),
        "KComparison": ("stratum", "box_radius", "source",
                        "boxed_source", "window_rank", "torsion",
                        "stabilized"),
        "KVanishingReport": ("cone_rays", "star_ray", "box_radius",
                             "identified", "failure", "window_rank",
                             "torsion", "stabilized", "matched",
                             "conclusion"),
    }),
)
# Records with fields built on first read (cached_property).
LAZY = {"BoxedQuotient": ("monomials", "relation_columns", "group")}


@pytest.mark.parametrize("module, name, fields", [
    (module, name, fields) for module, records in RECORDS
    for name, fields in records.items()])
def test_record_fields(module, name, fields):
    cls = getattr(importlib.import_module("toricstacks." + module), name)
    if name in LAZY:
        assert not issubclass(cls, tuple)
        assert tuple(inspect.signature(cls).parameters) == fields
        assert all(p.default is p.empty
                   for p in inspect.signature(cls).parameters.values())
        assert all(hasattr(cls, lazy) for lazy in LAZY[name])
    else:
        assert issubclass(cls, tuple)
        assert cls._fields == fields
        assert cls._field_defaults == {}
