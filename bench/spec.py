"""What the benchmark measures: workloads, metrics, bounds and run length.

This module is the single source of BENCHMARK.json (written by
`python3 bench/run.py --all`).  Bounds are the share of the parent
commit's median by which an end-to-end metric may worsen before a change
counts as a regression; they were set from the run-to-run spread of ten
seeded runs per workload on a 2-core x86-64 box (see NOTES.md).
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 50

# name -> why it is in the benchmark (one line each, kept short for the
# manifest; NOTES.md has the long form).  Only these two are gated: the
# end-to-end times of k_window and fan_complete did not hold still on the
# defining host (NOTES.md), so they run with --workload / --all and in
# traced runs but are not in BENCHMARK.json.
WORKLOADS = {
    "chow_corpus": "verify_vanishing at max_deg 4 on the 20 corpus cones: "
                   "the paper's verdict, cokernel and graded_piece bound",
    "cli_fixtures": "one fresh CLI process per verb on fixtures/, text and "
                    "--json: interpreter start, import and formatting",
}

# Passes a run always makes.  Enough that the tenth-slowest op sample
# falls among the samples of the slowest op of a pass (cone 18 once per
# chow_corpus pass, verify-k-vanishing on sigma_square twice per
# cli_fixtures pass), so that op_s_tail always measures that op.
MIN_PASSES = {"chow_corpus": 11, "k_window": 2, "fan_complete": 2,
              "cli_fixtures": 6}

# (name, unit, better, bound)
END_TO_END = [
    ("pass_s", "s", "lower", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

CLI_VERBS = ["validate", "subdivide", "cox", "chow-stack", "chow-groups",
             "ktheory-stack", "verify-vanishing", "verify-k-vanishing",
             "strongness"]

def _per_layer_names() -> list[str]:
    stats = {
        "intlinalg.cokernel": ["calls", "total_s", "self_s", "cells_sum",
                               "cells_max", "entry_bits_max"],
        "intlinalg.hnf": ["calls", "total_s"],
        "intlinalg.kernel_basis": ["calls", "total_s"],
        "intlinalg.solve_in_span": ["calls", "total_s"],
        "graded.graded_piece": ["calls", "misses", "hit_ratio", "self_s",
                                "basis_monomials", "relation_columns"],
        "graded.is_iso_up_to": ["total_s"],
        "graded.induced_map": ["total_s"],
        "graded.certify_well_defined": ["total_s"],
        "fan.validate_fan": ["total_s"],
        "fan.primitive_collections": ["calls", "total_s"],
        "fan.star_subdivision": ["total_s"],
        "fan.star_quotient_fan": ["total_s"],
        "fan.is_refinement": ["total_s"],
        "fan.orbit_relation_data": ["calls", "total_s"],
        "cox.cox": ["calls", "total_s", "self_s"],
        "chow.exceptional_comparison": ["total_s"],
        "chow.verify_vanishing": ["self_s"],
        "chow.chow_groups": ["total_s"],
        "ktheory.k_ring_stack": ["total_s"],
        "ktheory.boxed_quotient": ["calls", "total_s", "self_s",
                                   "box_monomials", "relation_columns"],
        "ktheory.window_lattice": ["total_s"],
    }
    names = [f"{fn}.{stat}" for fn, sts in stats.items() for stat in sts]
    names += ["cli.interpreter_s", "cli.import_s"]
    names += [f"cli.run.{verb}.total_s" for verb in CLI_VERBS]
    names.append("trace.overhead_s")
    return names


PER_LAYER_NAMES = _per_layer_names()


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat == "hit_ratio":
        return "ratio"
    if stat == "entry_bits_max":
        return "bits"
    return "count"


def better_of(name: str) -> str:
    return "higher" if name.endswith("hit_ratio") else "lower"


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": unit_of(n), "better": better_of(n)}
                      for n in PER_LAYER_NAMES],
    }


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    return path
