"""Write the pinned expectations in bench/expected/ from the current code.

    python3 bench/pin.py

The pins are the outputs of the commit that defined the benchmark; the
correctness gate compares every later commit against them.  Rerun this
only when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json

import workloads as w

MAX_BOX = 6


def smallest_box(ktheory, cone) -> tuple[int, object]:
    """The least box radius the verifier accepts, with its report."""
    for box in range(1, MAX_BOX + 1):
        try:
            return box, ktheory.verify_k_vanishing(cone, box)
        except ValueError:
            continue
    raise SystemExit("no box up to %d is admissible" % MAX_BOX)


def main() -> None:
    mods = w.import_package()
    cones = w.corpus_cones()
    chow = []
    for cone in cones:
        r = mods["chow"].verify_vanishing(cone, w.CORPUS_MAX_DEG)
        chow.append({"conclusion": r.conclusion,
                     "pieces": [[k, free, list(t)]
                                for k, free, t in r.pieces]})
    k_window = []
    for cone in cones:
        box, r = smallest_box(mods["ktheory"], cone)
        k_window.append({"box": box, "conclusion": r.conclusion,
                         "window_rank": r.window_rank,
                         "torsion": None if r.torsion is None
                         else list(r.torsion)})
    cli = []
    for argv in w.cli_argvs():
        code, out, _ = w.cli_process(argv)
        cli.append({"argv": argv, "exit": code,
                    "stdout": out.decode("utf-8")})
    w.EXPECTED.mkdir(exist_ok=True)
    for name, data in (("chow_corpus", chow), ("k_window", k_window),
                       ("cli_fixtures", cli)):
        path = w.EXPECTED / (name + ".json")
        path.write_text(json.dumps(data, indent=1) + "\n")
        print("wrote", path.relative_to(w.ROOT))


if __name__ == "__main__":
    main()
