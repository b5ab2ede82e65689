"""Mutation checks: each entry breaks the program on purpose, and the tests
it names must then fail.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

Each entry gives a source file, a snippet that must occur in it exactly
once, the snippet's replacement and the test files expected to fail.  For
each entry the runner copies the tree the tests read (src/, tests/,
fixtures/, bench/ and pyproject.toml: several tests locate the package
sources and the pinned outputs from their own path) to a temporary
directory, applies the replacement to the copy, and runs `pytest -x -q`
on the listed files there with PYTHONPATH at the copy's src/.  A failing
exit kills the mutant; a passing one means it survived.  Before any
mutant, the same files must pass on an unmutated copy, so a kill is the
mutation's doing.  A snippet that no longer occurs exactly once is an
error, never a skip: update the entry when the code it names is
refactored.  The run prints each verdict and the killed and survived
counts, and exits nonzero on a survivor or an error.

The name does not start with test_, so pytest does not collect it; it
needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "fixtures", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/toricstacks
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # relative to tests/


MUTANTS = (
    Mutant("cokernel skips the relation check on a memo hit", "intlinalg.py",
           """    group = _cokernel_group(m)
    assert group.kills(m), "projection does not kill a relation"
""",
           """    hits = _cokernel_group.cache_info().hits
    group = _cokernel_group(m)
    assert _cokernel_group.cache_info().hits > hits or group.kills(m), \\
        "projection does not kill a relation"
""",
           ("test_lattice_memo_oracle.py",)),
    Mutant("_hnf breaks a pivot tie toward the last row", "intlinalg.py",
           """                if x and (piv is None or x < best):
                    piv, best = i, x""",
           """                if x and (piv is None or x <= best):
                    piv, best = i, x""",
           ("test_elimination_kernel_oracle.py",)),
    Mutant("_snf breaks a pivot tie toward the last entry", "intlinalg.py",
           """                if x and (piv is None or x < best):
                    piv, best = (i, j), x""",
           """                if x and (piv is None or x <= best):
                    piv, best = (i, j), x""",
           ("test_elimination_kernel_oracle.py",)),
    Mutant("the cached solve echelon stores lists", "intlinalg.py",
           """    return tuple(map(tuple, h[:r])), tuple(map(tuple, u[:r]))""",
           """    return h[:r], u[:r]""",
           ("test_elimination_kernel_oracle.py",)),
    Mutant("kills ignores the torsion rows", "intlinalg.py",
           """        return all(x % d == 0 for row, d in zip(image, self.torsion)
                   for x in row) and not any(map(any, image[nt:]))""",
           """        return not any(map(any, image[nt:]))""",
           ("test_lattice_memo_oracle.py",)),
    Mutant("kills ignores the free rows", "intlinalg.py",
           """                   for x in row) and not any(map(any, image[nt:]))""",
           """                   for x in row)""",
           ("test_lattice_memo_oracle.py",)),
    Mutant("zero-piece shortcut after a torsion piece of free rank 0",
           "chow.py",
           """        zero = k >= 2 and out[-1] == (0, ())""",
           """        zero = k >= 2 and out[-1][0] == 0""",
           ("test_zero_piece_lemma.py",)),
    Mutant("carried collections left unsorted", "chow.py",
           """    target = chow_presentation(n_target, ray_relations(quotient), sorted(
        (frozenset(dst[i] for i in c) for c in cd.primitive_collections),
        key=sorted))""",
           """    target = chow_presentation(n_target, ray_relations(quotient), [
        frozenset(dst[i] for i in c) for c in cd.primitive_collections])""",
           ("test_target_collections_oracle.py",)),
    Mutant("collections not carried across dst", "chow.py",
           """frozenset(dst[i] for i in c) for c in""",
           """frozenset(c) for c in""",
           ("test_target_collections_oracle.py",)),
    Mutant("K identification: no kill check", "ktheory.py",
           """    if not group.kills(from_columns(carried, n)):""",
           """    if False:""",
           ("test_k_transport_oracle.py",)),
    Mutant("K identification: no structure check", "ktheory.py",
           """    if group.structure() != tgt_group.structure():""",
           """    if False:""",
           ("test_ktheory.py",)),
    Mutant("K identification: the generation assert dropped", "ktheory.py",
           """    assert group.generated_by([p_src.generator_images[i]
                               for i in stratum.surviving]), \\
        "stratum ray classes do not generate the character group"
""",
           "",
           ("test_ktheory.py",)),
    Mutant("matched is always True", "ktheory.py",
           """    matched = True if comp.stabilized else None""",
           """    matched = True""",
           ("test_ktheory.py",)),
    Mutant("exceptional_stratum lists v before sigma's rays", "fan.py",
           """    rays = sigma.rays if v in sigma.rays else sigma.rays + (v,)""",
           """    rays = sigma.rays if v in sigma.rays else (v,) + sigma.rays""",
           ("test_stratum_oracle.py",)),
    Mutant("exceptional_stratum with reversed facets", "fan.py",
           """    joins = _joins(sigma, v)
""",
           """    joins = _joins(sigma, v)[::-1]
""",
           ("test_stratum_oracle.py",)),
    Mutant("L's rays in source order, not first-seen", "fan.py",
           """    for t in adjacent:
        for i in t:
            if i not in to_l:""",
           """    for t in [sorted({i for t in adjacent for i in t})]:
        for i in t:
            if i not in to_l:""",
           ("test_stratum_oracle.py",)),
    Mutant("L's images not primitivized", "fan.py",
           """                to_l[i] = (images.setdefault(primitivize(img), len(images)),""",
           """                to_l[i] = (images.setdefault(img, len(images)),""",
           ("test_stratum_oracle.py",)),
    Mutant("Fan.cone ignores the stored per-cone order", "fan.py",
           """                self.rays[i] for i in self._order.get(s) or sorted(s)])""",
           """                self.rays[i] for i in sorted(s)])""",
           ("test_stratum_oracle.py",)),
    Mutant("star_quotient_fan treats every ray as adjacent", "fan.py",
           """            adjacent.append(tuple(sorted(
                index[c.rays[j]] for face in c.face_ray_sets()
                if len(face) == 2 and at in face for j in face - {at})))""",
           """            adjacent.append(tuple(sorted(s - {ri})))""",
           ("test_fan.py",)),
    Mutant("star_quotient_fan skips the repeated-or-nested check", "fan.py",
           """    if any(a <= b for i, a in enumerate(cones)""",
           """    if False and any(a <= b for i, a in enumerate(cones)""",
           ("test_fan.py",)),
    Mutant("the full-dimensional shortcut skips the determinant", "fan.py",
           """        perp_rows = () if len(gens) == n and det(gens) \\""",
           """        perp_rows = () if len(gens) == n \\""",
           ("test_lazy_geometry_oracle.py",)),
    Mutant("exceptional_stratum skips the facet-pairing assert", "fan.py",
           """    assert all(_dot(w, v) > 0 for w in sigma.facet_normals), \\
        "the star ray is not interior to the cone"
""",
           "",
           ("test_stratum_oracle.py",)),
    Mutant("weights read off the projection's rows", "cox.py",
           """    weights = transpose(group.projection) or ((),) * r""",
           """    weights = tuple(group.projection) or ((),) * r""",
           ("test_cox.py",)),
    Mutant("cli imports ktheory at top level", "cli.py",
           """from .intlinalg import structure_text, transpose
""",
           """from .intlinalg import structure_text, transpose
from . import ktheory  # noqa: F401
""",
           ("test_import_footprint.py",)),
    Mutant("is_refinement buckets by ray count", "fan.py",
           """                  if tau.dim == sigma.dim and sigma.contains_cone(tau)]""",
           """                  if len(tau.rays) == len(sigma.rays)
                  and sigma.contains_cone(tau)]""",
           ("test_fan_combinatorics_oracle.py",)),
    Mutant("_facet_data keeps an outward normal", "fan.py",
           """            w = tuple(-x for x in w)
""",
           "",
           ("test_simplicial_cone_oracle.py",)),
    Mutant("face_ray_sets leaves out the empty face", "fan.py",
           """                        if g not in found:""",
           """                        if g and g not in found:""",
           ("test_lazy_geometry_oracle.py",)),
    Mutant("the report is printed outside the guard", "cli.py",
           """        _emit(json.dumps(payload, indent=2, sort_keys=True) if ns.json
              else "\\n".join(lines))
    except UserError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        import traceback  # only here: process start does not pay for it
        traceback.print_exc()
        return 3
    return code
""",
           """        text = (json.dumps(payload, indent=2, sort_keys=True) if ns.json
                else "\\n".join(lines))
    except UserError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        import traceback  # only here: process start does not pay for it
        traceback.print_exc()
        return 3
    print(text)
    return code
""",
           ("test_cli.py",)),
    Mutant("from_data skips the maximal-cone check", "fan.py",
           """        sets = [frozenset(c.rays) for c in cones]""",
           """        sets = []""",
           ("test_fan.py",)),
    Mutant("orbit pairings skip the division by <w, r>", "fan.py",
           """pairings=tuple(x // w_r for x in u_r)))""",
           """pairings=tuple(u_r)))""",
           ("test_fan.py", "test_fan_combinatorics_oracle.py")),
    Mutant("orbit pairings read r from inside tau", "fan.py",
           """        r = next(x for i, x in enumerate(sigma.rays) if i not in fs)""",
           """        r = next(x for i, x in enumerate(sigma.rays) if i in fs)""",
           ("test_fan.py", "test_fan_combinatorics_oracle.py")),
    Mutant("induced_map takes psi as phi's transpose", "graded.py",
           """    psi = solve_many_in_span(transpose(phi_source.substitution), identity(n))""",
           """    psi = transpose(phi_source.substitution)""",
           ("test_induced_map_pin.py",)),
    Mutant("make_presentation drops the negative-exponent check",
           "graded.py",
           """        if expt and min(expt) < 0:
            raise ValueError("negative exponent in %r" % (expt,))
""",
           "",
           ("test_graded.py",)),
    Mutant("_relation_matrix skips the linear-generator rows", "graded.py",
           """    for row in p.linear_gens:
        gen = {identity(p.n_vars)[i]: c for i, c in enumerate(row) if c}""",
           """    for row in ():
        gen = {identity(p.n_vars)[i]: c for i, c in enumerate(row) if c}""",
           ("test_negative_corpus.py",)),
    Mutant("lattice_structure takes the unit-pivot shortcut on any pivot",
           "intlinalg.py",
           """    if all(next(filter(None, row)) == 1 for row in canon_cols):""",
           """    if True:""",
           ("test_piece_structure_oracle.py",)),
    Mutant("membership ignores the division remainder", "intlinalg.py",
           """        if r or any(res[start:p]):""",
           """        if any(res[start:p]):""",
           ("test_piece_structure_oracle.py",)),
    Mutant("lattice_structure drops the invariant-factor assert",
           "intlinalg.py",
           """    assert all(diag), "Smith diagonal shorter than the Hermite rank"
""",
           "",
           ("test_piece_structure_oracle.py",)),
    Mutant("-h is printed outside the guard", "cli.py",
           """    try:
        ns = _parse(list(argv))
        if isinstance(ns, int):
            return ns
        payload""",
           """    ns = _parse(list(argv))
    if isinstance(ns, int):
        return ns
    try:
        payload""",
           ("test_cli.py",)),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def mutate(dest: Path, m: Mutant) -> None:
    path = dest / "src" / "toricstacks" / m.file
    text = path.read_text("utf-8")
    found = text.count(m.snippet)
    if found != 1:
        raise SystemExit("mutant %r: its snippet occurs %d times in %s, "
                         "not once; update the entry" % (m.name, found, m.file))
    path.write_text(text.replace(m.snippet, m.replacement), "utf-8")


def pytest_exit(dest: Path, tests) -> int:
    """pytest's exit code on the given test files of the copy at dest."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
            "no:cacheprovider", *("tests/" + t for t in tests)]
    return subprocess.run(argv, cwd=dest, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run_in_copy(m: Mutant | None, tests) -> int:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        if m is not None:
            mutate(dest, m)
        return pytest_exit(dest, tests)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit("no mutant named %s" % sorted(unknown))
    files = sorted({t for m in chosen for t in m.tests})
    code = run_in_copy(None, files)
    if code != 0:
        raise SystemExit("the unmutated copy fails %s (pytest exit %d)"
                         % (" ".join(files), code))
    killed = survived = 0
    for m in chosen:
        code = run_in_copy(m, m.tests)
        # 1: a test failed; 2: collection or import failed.  Any other
        # exit (usage error, no tests) is a broken entry, not a verdict.
        if code not in (0, 1, 2):
            raise SystemExit("mutant %r: pytest exit %d on %s"
                             % (m.name, code, " ".join(m.tests)))
        verdict = "SURVIVED" if code == 0 else "killed"
        killed += code != 0
        survived += code == 0
        print("%-8s %s (%s)" % (verdict, m.name, " ".join(m.tests)),
              flush=True)
    print("%d killed, %d survived" % (killed, survived))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
