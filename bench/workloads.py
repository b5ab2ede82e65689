"""Workload inputs, ops and correctness checks.

`setup(name, seed)` imports the package from the checkout's src/, builds
the workload's inputs from the seed and returns a Workload whose ops run
in seeded order.  An op is one call into the package's public functions
(or, for cli_fixtures, one fresh `python -m toricstacks` process); its
output is checked against the pinned expectations in bench/expected/ or,
for fan_complete, against facts that hold for every smooth complete fan.

Ops look the package functions up on their modules at call time, so that
a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from spec import CLI_VERBS

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "expected"

NAMES = ("chow_corpus", "k_window", "fan_complete", "cli_fixtures")
MODULES = ("intlinalg", "fan", "cox", "graded", "chow", "ktheory", "cli")

# (ambient rank, ray count) of the fans in one fan_complete pass.  The
# pass is the same size for every seed, so that pass time measures the
# code, not the draw; the seed picks which cones get subdivided and the
# order.
FAN_SLOTS = ((3, 12), (3, 13), (3, 14), (3, 15), (3, 16), (4, 12), (4, 12))
CORPUS_MAX_DEG = 4


def import_package() -> dict:
    """Import toricstacks from src/ of this checkout; return its layer
    modules.

    Refuses a toricstacks found anywhere else, so the benchmark never
    measures an installed copy instead of the checkout."""
    src = ROOT / "src"
    if not (src / "toricstacks").is_dir():
        raise SystemExit("no toricstacks package under %s" % src)
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module("toricstacks." + m) for m in MODULES}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent \
                != (src / "toricstacks").resolve():
            raise SystemExit("%s imported from %s, not from %s"
                             % (mod.__name__, mod.__file__, src))
    return mods


def _package_caches(mods: dict) -> list:
    seen = []
    for mod in mods.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) \
                    and obj not in seen:
                seen.append(obj)
    return seen


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right


@dataclass
class Workload:
    name: str
    seed: int
    mods: dict
    ops: list[Op]
    caches: list
    # hostspeed reference that tracks the ops' kind of work
    reference: str = "loop"
    child_rss_kib: list[int] = field(default_factory=list)
    # Same outputs as ops, computed in this process (cli_fixtures only).
    inprocess_ops: list[Op] = field(default_factory=list)

    def reset(self) -> None:
        """Clear every functools cache in the package, so each pass does
        the work of a fresh process."""
        for cache in self.caches:
            cache.cache_clear()

    def peak_rss_mib(self) -> float:
        if self.child_rss_kib:
            return max(self.child_rss_kib) / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_expected(name: str) -> Any:
    with open(EXPECTED / (name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def corpus_cones() -> list:
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", ROOT / "tests" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus_cones()


def _seeded_order(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


# -- chow_corpus -----------------------------------------------------------

def check_chow(exp: dict, report) -> str | None:
    pieces = [[k, free, list(tors)] for k, free, tors in report.pieces]
    if report.conclusion != exp["conclusion"]:
        return "conclusion %r, expected %r" % (report.conclusion,
                                               exp["conclusion"])
    if pieces != exp["pieces"]:
        return "pieces %r, expected %r" % (pieces, exp["pieces"])
    return None


def _chow_ops(mods, seed) -> list[Op]:
    chow = mods["chow"]
    cones = corpus_cones()
    expected = load_expected("chow_corpus")
    ops = []
    for i in _seeded_order(len(cones), seed):
        def run(cone=cones[i]):
            return chow.verify_vanishing(cone, CORPUS_MAX_DEG)

        def check(report, exp=expected[i]):
            return check_chow(exp, report)
        ops.append(Op("cone%d" % i, run, check))
    return ops


# -- k_window --------------------------------------------------------------

def check_k(exp: dict, report) -> str | None:
    got = {"conclusion": report.conclusion,
           "window_rank": report.window_rank,
           "torsion": None if report.torsion is None
           else list(report.torsion)}
    want = {k: exp[k] for k in got}
    return None if got == want else "got %r, expected %r" % (got, want)


def _k_ops(mods, seed) -> list[Op]:
    ktheory = mods["ktheory"]
    cones = corpus_cones()
    expected = load_expected("k_window")
    ops = []
    for i in _seeded_order(len(cones), seed):
        def run(cone=cones[i], box=expected[i]["box"]):
            return ktheory.verify_k_vanishing(cone, box)

        def check(report, exp=expected[i]):
            return check_k(exp, report)
        ops.append(Op("cone%d/box%d" % (i, expected[i]["box"]), run, check))
    return ops


# -- fan_complete ----------------------------------------------------------

def complete_fan(fan_mod, r: int):
    """The complete fan of (P^1)^r: rays +-e_i, one cone per orthant."""
    def unit(i, s):
        return tuple(s if j == i else 0 for j in range(r))
    cones = [fan_mod.make_cone(r, [unit(i, s[i]) for i in range(r)])
             for s in itertools.product((1, -1), repeat=r)]
    return fan_mod.Fan(r, cones)


def seeded_fans(fan_mod, seed: int) -> list[tuple]:
    """(fan, index of the maximal cone the op subdivides once more), one
    per FAN_SLOTS entry, in seeded order.

    Untouched orthants are subdivided first.  Repeated subdivision of one
    corner grows the ray coordinates and, with them, the cost of the op,
    so drawing from all cones would make a pass cost depend on the seed."""
    rng = random.Random(seed)
    out = []
    for r, n_rays in FAN_SLOTS:
        f = complete_fan(fan_mod, r)
        while len(f.rays) < n_rays:
            orthants = [s for s in f.maximal_cones
                        if all(sum(map(abs, f.rays[i])) == 1 for i in s)]
            pick = rng.choice(orthants or f.maximal_cones)
            f = fan_mod.star_subdivision(f, f.cone(pick))
        out.append((f, rng.randrange(len(f.maximal_cones))))
    rng.shuffle(out)
    return out


def fan_op(mods, f, extra: int):
    fan, cox, chow = mods["fan"], mods["cox"], mods["chow"]
    ok = fan.validate_fan(f).ok
    group = cox.cox(f).char_group.structure()
    chow_groups = [chow.chow_groups(f, k).structure()
                   for k in range(f.ambient_rank + 1)]
    finer = fan.star_subdivision(f, f.cone(f.maximal_cones[extra]))
    return ok, group, chow_groups, fan.is_refinement(finer, f)


def check_fan(f, out) -> str | None:
    """Facts every smooth complete fan satisfies, independent of how the
    package computes them."""
    ok, group, chow_groups, refines = out
    r, n_rays = f.ambient_rank, len(f.rays)
    ranks = [free for free, _ in chow_groups]
    if not ok:
        return "fan does not validate"
    if not refines:
        return "the star subdivision does not refine the fan"
    if group != (n_rays - r, ()):
        return "X(G) = %r, expected Z^%d" % (group, n_rays - r)
    if any(tors for _, tors in chow_groups):
        return "Chow groups have torsion: %r" % (chow_groups,)
    if ranks[0] != 1 or ranks[r] != 1:
        return "A_0, A_r ranks %d, %d, expected 1, 1" % (ranks[0], ranks[r])
    if ranks != ranks[::-1]:
        return "Chow ranks %r are not palindromic" % (ranks,)
    if sum(ranks) != len(f.maximal_cones):
        return "Chow ranks sum to %d, %d maximal cones" \
            % (sum(ranks), len(f.maximal_cones))
    return None


def _fan_ops(mods, seed) -> list[Op]:
    ops = []
    for f, extra in seeded_fans(mods["fan"], seed):
        def run(f=f, extra=extra):
            return fan_op(mods, f, extra)

        def check(out, f=f):
            return check_fan(f, out)
        ops.append(Op("r%d/%drays" % (f.ambient_rank, len(f.rays)),
                      run, check))
    return ops


# -- cli_fixtures ----------------------------------------------------------

def cli_process(argv) -> tuple[int, bytes, int]:
    """Run `python -m toricstacks argv` in a fresh process from the root;
    returns (exit code, stdout bytes, peak RSS of the child in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "toricstacks", *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4 reaps the child and gives its own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def cli_inprocess(cli_mod, argv) -> tuple[int, bytes, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.run(list(argv))
    return code, out.getvalue().encode("utf-8"), 0


def check_cli(exp: dict, out) -> str | None:
    code, stdout, _ = out
    if code != exp["exit"]:
        return "exit %d, expected %d" % (code, exp["exit"])
    if stdout != exp["stdout"].encode("utf-8"):
        return "stdout differs from the pinned output"
    return None


def cli_argvs() -> list[list[str]]:
    """Every verb on each good fixture with default options, in text and
    --json, plus validate on the fan that breaks the axioms."""
    argvs = [[verb, "fixtures/%s.json" % fx] + fmt
             for fx in ("sigma_square", "strongness_example")
             for verb in CLI_VERBS for fmt in ([], ["--json"])]
    return argvs + [["validate", "fixtures/bad_fan.json"]]


def _cli_ops(mods, seed, wl) -> tuple[list[Op], list[Op]]:
    expected = {tuple(e["argv"]): e for e in load_expected("cli_fixtures")}
    argvs = cli_argvs()
    ops, inprocess = [], []
    for i in _seeded_order(len(argvs), seed):
        argv = argvs[i]
        exp = expected[tuple(argv)]

        def run(argv=argv):
            out = cli_process(argv)
            wl.child_rss_kib.append(out[2])
            return out

        def run_here(argv=argv):
            return cli_inprocess(mods["cli"], argv)

        def check(out, exp=exp):
            return check_cli(exp, out)
        label = " ".join(argv)
        ops.append(Op(label, run, check))
        inprocess.append(Op(label, run_here, check))
    return ops, inprocess


def setup(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise SystemExit("unknown workload %r; choose from %s"
                         % (name, ", ".join(NAMES)))
    mods = import_package()
    wl = Workload(name=name, seed=seed, mods=mods, ops=[],
                  caches=_package_caches(mods))
    if name == "chow_corpus":
        wl.ops = _chow_ops(mods, seed)
    elif name == "k_window":
        wl.ops = _k_ops(mods, seed)
    elif name == "fan_complete":
        wl.ops = _fan_ops(mods, seed)
    else:
        wl.ops, wl.inprocess_ops = _cli_ops(mods, seed, wl)
        wl.reference = "spawn"
    return wl
