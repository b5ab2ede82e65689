"""Command-line front end.

Reads fan JSON ({"rank": n, "rays": [[..]], "max_cones": [[indices]]}),
dispatches to the compute modules, and prints either a text report or the
JSON shape published in schemas.py.  Exit codes: 0 for a successful
computation (for the verify-* verbs: a true conclusion), 1 for a false or
inconclusive verification, 2 for input or usage errors (fan.UserError and
its subclasses; every verb checks the fan axioms before computing), 3 for
an internal error (any other exception, a bare ValueError included, and a
report or help text that cannot be written, its reader gone).
Output is deterministic: identical inputs produce identical bytes.

A process is one verb, and most of its time is start-up.  So one table,
VERBS, parses the command line, prints -h and dispatches: argparse's
import and parser build alone were ~5 % of a process.  Each handler
imports the layers it runs in its own body: at top level only fan and
intlinalg are loaded; tests/test_import_footprint.py pins what each verb
adds.  A JSON payload is its record's own fields (the NamedTuple's
_asdict()), reshaped only where schemas.py asks for it.
`python -X importtime -m toricstacks validate fixtures/sigma_square.json`
shows what a process loads.
"""

from __future__ import annotations

import json
import os
import sys
from math import lcm
from types import SimpleNamespace

from .fan import Fan, UserError, _integer, primitive_collections, \
    star_subdivision, star_vector, validate_fan
from .intlinalg import structure_text, transpose


class InputError(UserError):
    """Unusable input: missing file, malformed JSON, bad option value."""


def _load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s" % (path, exc))
    if not isinstance(payload, dict):
        raise InputError("%s: expected a JSON object" % path)
    return payload


def _load_fan(ns, payload: dict | None = None) -> Fan:
    """The fan of ns.input; payload is that file's JSON if already read."""
    if payload is None:
        payload = _load_payload(ns.input)
    for key in ("rank", "rays", "max_cones"):
        if key not in payload:
            raise InputError("%s: fan JSON needs rank, rays and max_cones"
                             % ns.input)
    return Fan.from_data(payload["rank"], payload["rays"],
                         payload["max_cones"])


def _violation_lines(report) -> list:
    return ["fan axioms violated:"] + [
        "  cones %s and %s: %s" % (_vec(v.first), _vec(v.second), v.reason)
        for v in report.violations]


def _load_valid_fan(ns, payload: dict | None = None) -> Fan:
    """_load_fan's fan, rejected with validate's report unless it
    satisfies the fan axioms."""
    f = _load_fan(ns, payload)
    report = validate_fan(f)
    if not report.ok:
        raise InputError("\n".join(_violation_lines(report)))
    return f


def _pick_cone(f: Fan, index: int):
    cones = f.maximal_cones
    if not 0 <= index < len(cones):
        raise InputError("cone index %d out of range; the fan has %d "
                         "maximal cones" % (index, len(cones)))
    return f.cone(cones[index])


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _signed_sum(terms, times: str = "") -> str:
    """The sum of (coeff, name) terms with zero coefficients left out,
    e.g. ((-2, "s1"), (-2, "s2")) -> '-2s1 - 2s2'; times goes between a
    magnitude other than 1 and its name."""
    text = ""
    for coeff, name in terms:
        if not coeff:
            continue
        mag = abs(coeff)
        body = name if mag == 1 else "%d%s%s" % (mag, times, name)
        if not text:
            text = ("-" if coeff < 0 else "") + body
        else:
            text += " %s %s" % ("-" if coeff < 0 else "+", body)
    return text or "0"


def _form(row) -> str:
    """Linear form over s1, s2, ..., e.g. (-2,-2,0) -> '-2s1 - 2s2'."""
    return _signed_sum((c, "s%d" % (i + 1)) for i, c in enumerate(row))


def _monomial(indices, letter: str = "s") -> str:
    return "*".join("%s%d" % (letter, i + 1) for i in sorted(indices))


def _laurent(coords) -> str:
    parts = []
    for i, c in enumerate(coords):
        if not c:
            continue
        parts.append("e%d" % (i + 1) + ("" if c == 1 else "^%d" % c))
    return "*".join(parts) if parts else "1"


def _gen_text(gen) -> str:
    # constant term first, then the monomial terms
    terms = sorted(gen, key=lambda t: (any(t[0]), t[0]))
    return _signed_sum(((coeff, _laurent(coords)) for coords, coeff in terms),
                       "*")


def _group_json(g) -> dict:
    return {"free_rank": g.free_rank, "torsion": g.torsion,
            "text": g.describe()}


def _cmd_validate(ns):
    f = _load_fan(ns)
    report = validate_fan(f)
    payload = dict(report._asdict(),
                   violations=[v._asdict() for v in report.violations])
    if report.ok:
        lines = ["fan is valid: %d rays, %d maximal cones"
                 % (len(f.rays), len(f.maximal_cones))]
        return payload, lines, 0
    return payload, _violation_lines(report), 2


def _cmd_subdivide(ns):
    f = _load_valid_fan(ns)
    sigma = _pick_cone(f, ns.cone)
    if sigma.is_zero:
        raise InputError("cannot subdivide the zero cone")
    out = star_subdivision(f, sigma)
    ray = star_vector(sigma)
    data = out.to_data()
    payload = {"fan": data, "star_ray": ray}
    lines = ["star ray: %s" % _vec(ray), "rays:"]
    lines += ["  %s" % _vec(r) for r in data["rays"]]
    lines.append("maximal cones: "
                 + ", ".join(_vec(c) for c in data["max_cones"]))
    return payload, lines, 0


def _cmd_cox(ns):
    from .cox import cox
    cd = cox(_load_valid_fan(ns))
    payload = {"group": _group_json(cd.char_group),
               "weights": cd.weights,
               "kernel": cd.kernel,
               "primitive_collections": [sorted(c)
                                         for c in cd.primitive_collections]}
    lines = ["character group: %s" % cd.char_group.describe(), "weights:"]
    lines += ["  x%d -> %s" % (i + 1, _vec(w))
              for i, w in enumerate(cd.weights)]
    lines.append("kernel lattice:")
    lines += ["  %s" % _vec(r) for r in cd.kernel] or ["  (empty)"]
    coll = ", ".join(_monomial(c, "x") for c in cd.primitive_collections)
    lines.append("primitive collections: %s" % (coll or "none"))
    return payload, lines, 0


def _piece_json(degree: int, free_rank: int, torsion) -> dict:
    """One graded piece as chow-stack and verify-vanishing report it."""
    return {"degree": degree, "free_rank": free_rank, "torsion": torsion,
            "text": structure_text(free_rank, torsion)}


def _cmd_chow_stack(ns):
    if ns.max_deg < 0:
        raise InputError("--max-deg must be nonnegative")
    from .chow import chow_presentation, piece_structures
    from .cox import ray_relations
    f = _load_valid_fan(ns)
    kernel, collections = ray_relations(f), primitive_collections(f)
    n = len(f.rays)
    p = chow_presentation(n, kernel, collections)
    pieces = [_piece_json(k, *structure) for k, structure
              in enumerate(piece_structures(p, ns.max_deg))]
    payload = {"variables": n,
               "linear_relations": kernel,
               "monomial_relations": [sorted(c) for c in collections],
               "pieces": pieces}
    lines = ["variables: %s" % ", ".join("s%d" % (i + 1) for i in range(n)),
             "linear relations:"]
    lines += ["  %s" % _form(r) for r in kernel] or ["  none"]
    mono = ", ".join(_monomial(c) for c in collections)
    lines.append("monomial relations: %s" % (mono or "none"))
    lines.append("graded pieces:")
    lines += ["  A^%d = %s" % (pc["degree"], pc["text"]) for pc in pieces]
    return payload, lines, 0


def _cmd_chow_groups(ns):
    from .fan import chow_groups
    f = _load_valid_fan(ns)
    if ns.k is not None and not 0 <= ns.k <= f.ambient_rank:
        raise InputError("--k must be in 0..%d" % f.ambient_rank)
    ks = [ns.k] if ns.k is not None else list(range(f.ambient_rank + 1))
    groups = [dict(_group_json(chow_groups(f, k)), k=k) for k in ks]
    payload = {"groups": groups}
    if ns.k is not None:
        lines = [groups[0]["text"]]
    else:
        lines = ["A_%d = %s" % (g["k"], g["text"]) for g in groups]
    return payload, lines, 0


def _cmd_ktheory_stack(ns):
    from .ktheory import k_ring_stack
    p = k_ring_stack(_load_valid_fan(ns))
    gens_json = [[{"exponent": coords, "coeff": coeff}
                  for coords, coeff in gen] for gen in p.ideal_gens]
    gens_text = [_gen_text(gen) for gen in p.ideal_gens]
    payload = {"group": _group_json(p.group),
               "generator_images": p.generator_images,
               "ideal_gens": gens_json,
               "ideal_gens_text": gens_text}
    lines = ["group algebra of: %s" % p.group.describe(),
             "generator images:"]
    lines += ["  x%d -> %s" % (i + 1, _laurent(w))
              for i, w in enumerate(p.generator_images)]
    lines.append("ideal generators: %s" % (", ".join(gens_text) or "none"))
    return payload, lines, 0


def _report_head(report, *lines) -> list:
    """The lines both verify verbs open with: the cone, its subdivision
    ray, the given lines, then why the identification failed, if it did."""
    head = ["cone rays: " + ", ".join(_vec(r) for r in report.cone_rays),
            "subdivision ray: %s" % _vec(report.star_ray), *lines]
    if not report.identified:
        head.append("identification failed: %s" % report.failure)
    return head


def _cmd_verify_vanishing(ns):
    if ns.max_deg < 1:
        raise InputError("--max-deg must be at least 1")
    from .chow import verify_vanishing
    report = verify_vanishing(_pick_cone(_load_valid_fan(ns), ns.cone),
                              ns.max_deg)
    pieces = [_piece_json(*piece) for piece in report.pieces]
    payload = dict(report._asdict(), pieces=pieces,
                   verdicts=[{"degree": k, "iso": ok}
                             for k, ok in report.verdicts])
    lines = _report_head(report)
    if report.identified:
        lines.append("identification: t_v -> %s (modulo the kernel lattice)"
                     % _form(report.extra_row))
    for k, ok in report.verdicts:
        lines.append("degree %d comparison: %s" % (k, "iso" if ok else
                                                   "NOT iso"))
    lines.append("graded pieces of the subdivided stack:")
    lines += ["  A^%d = %s" % (pc["degree"], pc["text"]) for pc in pieces]
    lines.append("A^0 of the point stratum: %s (recorded assumption)"
                 % report.point_class)
    if report.conclusion:
        lines.append("A^k_op vanishes for k=1..%d (checked)" % report.max_deg)
        return payload, lines, 0
    lines.append("vanishing NOT verified for this cone")
    return payload, lines, 1


def _cmd_verify_k_vanishing(ns):
    if ns.box < 1:
        raise InputError("--box must be at least 1")
    from .ktheory import verify_k_vanishing
    report = verify_k_vanishing(_pick_cone(_load_valid_fan(ns), ns.cone),
                                ns.box)
    payload = report._asdict()
    payload["box"] = payload.pop("box_radius")
    lines = _report_head(report, "box radius: %d" % report.box_radius)
    if report.identified:
        lines.append("window rank: %d" % report.window_rank)
        lines.append("window torsion: %s" % (", ".join(
            "Z/%d" % d for d in report.torsion) or "none"))
        lines.append("stabilized: %s" % ("yes" if report.stabilized
                                         else "no"))
        matched = {True: "yes", False: "no", None: "undetermined"}
        lines.append("matched: %s" % matched[report.matched])
    if report.conclusion:
        lines.append("op K^0 vanishing verified on the stabilized window "
                     "(checked at box radius %d)" % report.box_radius)
        return payload, lines, 0
    if report.identified and not report.stabilized:
        lines.append("inconclusive: the window did not stabilize at this "
                     "box radius")
    else:
        lines.append("vanishing NOT verified for this cone")
    return payload, lines, 1


def _cmd_strongness(ns):
    if ns.bound < 1:
        raise InputError("--bound must be at least 1")
    from .cox import cox, strong_divisor_check
    payload_in = _load_payload(ns.input)
    f = _load_valid_fan(ns, payload_in)
    if ns.ray is not None:
        divisor_ray = ns.ray
    elif "divisor_ray" in payload_in:
        divisor_ray = _integer(payload_in["divisor_ray"], "divisor_ray")
    else:
        raise InputError("no divisor ray: pass --ray or put a divisor_ray "
                         "key in the input")
    if not 0 <= divisor_ray < len(f.rays):
        raise InputError("divisor ray %d out of range; the fan has %d rays"
                         % (divisor_ray, len(f.rays)))
    if "weights" in payload_in:
        weights = payload_in["weights"]
    else:
        cd = cox(f)
        if cd.char_group.torsion:
            raise InputError("the character group has torsion; pass an "
                             "explicit free weight matrix in the input")
        weights = transpose(cd.weights)
    charts = strong_divisor_check(weights, f, divisor_ray, bound=ns.bound)
    strong = all(c.in_span for c in charts)
    minima = [c.min_power for c in charts]
    power = lcm(*minima) if minima and None not in minima else None
    payload = {"divisor_ray": divisor_ray, "bound": ns.bound,
               "charts": [c._asdict() for c in charts], "strong": strong,
               "power_lcm": power}
    lines = ["divisor: x%d" % (divisor_ray + 1)]
    for c in charts:
        mp = "unknown (bound %d exhausted)" % ns.bound \
            if c.min_power is None else str(c.min_power)
        lines.append("chart D(%s): in span: %s; minimal power: %s"
                     % (_monomial(c.invertible, "x"),
                        "yes" if c.in_span else "no", mp))
    if strong:
        lines.append("divisor x%d is strong on every chart"
                     % (divisor_ray + 1))
    else:
        bad = next(c for c in charts if not c.in_span)
        lines.append("divisor x%d is NOT strong (fails on chart D(%s))"
                     % (divisor_ray + 1, _monomial(bad.invertible, "x")))
    if power is not None:
        lines.append("x%d^%d is locally generated on every chart (lcm of "
                     "chart minima)" % (divisor_ray + 1, power))
    else:
        lines.append("no common power found within bound %d" % ns.bound)
    return payload, lines, 0


# verb -> (handler, one-line help, {option: integer default, or None for
# the handler's own}): the one table that parses, prints -h and dispatches.
VERBS = {
    "validate": (_cmd_validate, "check the fan axioms", {}),
    "subdivide": (_cmd_subdivide, "star subdivision of a cone", {"cone": 0}),
    "cox": (_cmd_cox, "character group, weights, kernel, collections", {}),
    "chow-stack": (_cmd_chow_stack, "graded Chow ring", {"max-deg": 4}),
    "chow-groups": (_cmd_chow_groups, "Chow groups A_k", {"k": None}),
    "ktheory-stack": (_cmd_ktheory_stack, "group algebra presentation", {}),
    "verify-vanishing": (_cmd_verify_vanishing, "exceptional comparison "
                         "for one cone", {"cone": 0, "max-deg": 4}),
    "verify-k-vanishing": (_cmd_verify_k_vanishing, "boxed K comparison "
                           "for one cone", {"cone": 0, "box": 3}),
    "strongness": (_cmd_strongness, "per-chart divisor strongness check",
                   {"ray": None, "bound": 20}),
}


def _usage(verb, error) -> int:
    """Print the usage line and the error on stderr and return 2, or for -h
    print the verb table or the verb's options on stdout and return 0."""
    options = VERBS[verb][2] if verb else {"OPTION": None}
    text = "usage: toricstacks %s INPUT [--json]%s\n" % (
        verb or "VERB", "".join(" [--%s N]" % opt for opt in options))
    if error:
        print(text + "toricstacks: error: " + error, file=sys.stderr)
        return 2
    rows = [(v, entry[1]) for v, entry in VERBS.items() if verb in (None, v)]
    if verb:
        rows += [("--json", "emit the JSON report instead of text")] + [
            ("--%s N" % opt, "default: %s" % ("none" if d is None else d))
            for opt, d in options.items()]
    _emit(text + "\n".join("  %-20s%s" % row for row in rows))
    return 0


def _parse(argv: list):
    """The namespace the verb's handler reads, or _usage's exit code.  argv
    is the verb, then one input, --json and the verb's --opt N or --opt=N
    in any order."""
    verb = argv[0] if argv else None
    if verb not in VERBS:
        return _usage(None, None if verb in ("-h", "--help") else
                      "unknown verb %r" % verb if argv else "no verb")
    options = VERBS[verb][2]
    ns = SimpleNamespace(verb=verb, input=None, json=False, **{
        opt.replace("-", "_"): d for opt, d in options.items()})
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            return _usage(verb, None)
        if arg == "--json":
            ns.json = True
        elif name.startswith("--") and name[2:] in options:
            value = value if eq else next(rest, "")
            try:
                setattr(ns, name[2:].replace("-", "_"), int(value))
            except ValueError:
                return _usage(verb, "%s expects an integer, got %r"
                              % (name, value))
        elif (arg.startswith("-") and arg != "-") or ns.input is not None:
            return _usage(verb, "unrecognized argument %r" % arg)
        else:
            ns.input = arg
    return ns if ns.input is not None else _usage(verb, "no input file")


def _emit(text: str) -> None:
    """Print and flush the report or the -h text, so that a failed write
    (its reader gone) raises inside run's guard.  The unwritten bytes then
    go to devnull: the flush at exit would otherwise fail on them again."""
    try:
        print(text, flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def run(argv) -> int:
    try:
        ns = _parse(list(argv))
        if isinstance(ns, int):
            return ns
        payload, lines, code = VERBS[ns.verb][0](ns)
        _emit(json.dumps(payload, indent=2, sort_keys=True) if ns.json
              else "\n".join(lines))
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))
