"""Check that the benchmark is steady: two sets of runs of the same code
must agree within the bounds in spec.py.

    python3 bench/steady.py [--runs 10] [--sets 2] [--workloads a,b]

The workloads default to the gated ones in BENCHMARK.json.

Each run is `bench/run.py --workload W --seed N --trace 0`, with a
different seed per run (set k uses seeds 100*k+1 .. 100*k+runs).  For
every end-to-end metric and workload it reports, per set, the median and
the spread (distance between the first and third quartile as a share of
the median), and the change of each later set's median against the first.
A pair agrees when every spread except that of setup_s is within the
bound and no set's median is worse than the first set's by more than the
bound; it is steady when every spread is below a third of the bound.
Raw results go to .bench_out/steady-<unix time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import spec
import workloads as w

RUN = w.ROOT / "bench" / "run.py"


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, later: float, better: str) -> float:
    change = (later - first) / first
    return change if better == "lower" else -change


def one_run(name: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", name, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=w.ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d ops failed"
                         % (name, seed, result["failed"],
                            result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(results: dict, names: list[str]) -> bool:
    all_agree = True
    print("%-13s %-13s %6s %s" % ("workload", "metric", "bound",
                                  "per set: median spread [change]  verdict"))
    for name in names:
        for metric, _unit, better, bound in spec.END_TO_END:
            sets = [[run[metric] for run in runs] for runs in results[name]]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            changes = [worse_by(meds[0], m, better) for m in meds[1:]]
            agree = all(c <= bound for c in changes) and (
                metric == "setup_s" or all(s <= bound for s in spreads))
            steady = all(s < bound / 3 for s in spreads)
            all_agree = all_agree and agree
            cells = []
            for i, (m, s) in enumerate(zip(meds, spreads)):
                cell = "%.5g %.3f" % (m, s)
                if i:
                    cell += " [%+.3f]" % changes[i - 1]
                cells.append(cell)
            print("%-13s %-13s %6.3f %s  %s%s"
                  % (name, metric, bound, " | ".join(cells),
                     "agree" if agree else "DISAGREE",
                     ", steady" if steady else ", spread above bound/3"))
    return all_agree


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    args = ap.parse_args()
    names = args.workloads.split(",")
    results = {name: [] for name in names}
    for k in range(1, args.sets + 1):
        for name in names:
            runs = []
            for i in range(1, args.runs + 1):
                t0 = time.time()
                runs.append(one_run(name, 100 * k + i, args.seconds))
                print("set %d %s seed %d: %.0f s" % (k, name, 100 * k + i,
                                                     time.time() - t0),
                      flush=True)
            results[name].append(runs)
    out = w.ROOT / ".bench_out" / ("steady-%d.json" % time.time())
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print("raw results in %s" % out.relative_to(w.ROOT))
    return 0 if report(results, names) else 1


if __name__ == "__main__":
    sys.exit(main())
