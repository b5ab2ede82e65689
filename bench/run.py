"""Run one benchmark workload, or all of them.

    python3 bench/run.py --workload chow_corpus --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --all [--seed 1] [--seconds 50] [--trace 0|1]

A run builds the workload's inputs from the seed, then makes whole passes
over them (closed loop, one client, one process) for about --seconds
seconds.  Every op's output is checked.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  --all runs each workload in its own process, prints every
metric by name with its unit and writes BENCHMARK.json from spec.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import hostspeed
import spans
import spec
import workloads as w

OUT = w.ROOT / ".bench_out"
PROBES = 5  # fresh processes per set-up or start-up time


def run_pass(wl: w.Workload, ops: list, recorder=None):
    """One pass over ops in order; returns (pass_s, op latencies, failure
    messages).  Outputs are checked after the pass, outside its time."""
    wl.reset()
    gc.collect()
    outs, lat = [], []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        a = perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a raising op is a failed op
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        lat.append(perf_counter() - a)
        outs.append((out, err))
    pass_s = perf_counter() - t0
    fails = []
    for op, (out, err) in zip(ops, outs):
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:
                err = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if err:
            fails.append("%s: %s" % (op.label, err))
    return pass_s, lat, fails


def measure(wl, ops, seconds: float, min_passes: int,
            scaled: bool = False):
    """Whole passes until the next one would end after `seconds`, and at
    least min_passes of them.  With `scaled`, each pass's times are scaled
    to nominal host speed by the workload's hostspeed reference; raw pass
    times are returned as well."""
    passes, raw, lat, fails = [], [], [], []
    start = perf_counter()
    while True:
        if scaled:
            (pass_s, pass_lat, pass_fails), factor = hostspeed.run_scaled(
                wl.reference, lambda: run_pass(wl, ops))
        else:
            (pass_s, pass_lat, pass_fails), factor = run_pass(wl, ops), 1.0
        raw.append(pass_s)
        passes.append(pass_s * factor)
        lat += [x * factor for x in pass_lat]
        fails += pass_fails
        if len(passes) >= min_passes \
                and perf_counter() - start + pass_s > seconds:
            return passes, raw, lat, fails


def tail(values: list[float]) -> float:
    """The latency with ten samples beyond it: the highest percentile that
    still has ten samples beyond it (the largest value below 11 samples)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def process_seconds(argv: list[str], env=None) -> float:
    """Wall time of one fresh process, start to exit."""
    t0 = perf_counter()
    subprocess.run(argv, cwd=w.ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh processes, each timing its own import
    and input building right after the loop reference; returned scaled to
    nominal host speed and raw."""
    argv = [sys.executable, __file__, "--setup-probe", "--workload", name,
            "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(PROBES):
        done = subprocess.run(argv, cwd=w.ROOT, check=True, text=True,
                              stdout=subprocess.PIPE)
        setup_s, reference_s = map(float, done.stdout.split())
        raw.append(setup_s)
        scaled.append(setup_s * hostspeed.LOOP_NOMINAL_S / reference_s)
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(wl: w.Workload, seconds: float):
    passes, raw, lat, fails = measure(wl, wl.ops, seconds,
                                      spec.MIN_PASSES[wl.name], scaled=True)
    # Each op's median over the passes, then the median over the ops: the
    # pooled median would sit between two ops of different cost and read
    # the extremes of their samples.
    n_ops = len(wl.ops)
    per_op = [statistics.median(lat[i::n_ops]) for i in range(n_ops)]
    op_tail = tail(lat)
    metrics = {
        "pass_s": (statistics.median(passes), "s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "op_s_tail": (op_tail, "s"),
        "peak_rss_mib": (wl.peak_rss_mib(), "MiB"),
    }
    notes = {
        "pass_s": "median of %d passes; %.6g s unscaled"
                  % (len(passes), statistics.median(raw)),
        "op_s_p50": "median over %d ops of each op's median" % n_ops,
        "op_s_tail": "p%.4g of %d op samples, 10 beyond"
                     % (100 * (len(lat) - 10) / len(lat), len(lat)),
        "peak_rss_mib": "largest child process" if wl.child_rss_kib
        else "this process",
    }
    return metrics, notes, len(lat), fails


def per_layer(wl: w.Workload, seconds: float):
    """Untraced passes for half the time, then one traced pass.  cli ops
    run in this process here, since spans cannot be recorded in a child."""
    ops = wl.inprocess_ops or wl.ops
    base, _, _, fails = measure(wl, ops, seconds / 2, 1)
    rec = spans.Recorder()
    with rec.installed(wl.mods):
        traced_s, lat, traced_fails = run_pass(wl, ops, rec)
    fails += traced_fails
    stats = spans.layer_stats(rec.spans)
    run_s = defaultdict(float)
    for s in rec.spans:
        if s.name == "cli.run":
            run_s[s.extra["verb"]] += s.duration
    metrics = {}
    for name in spec.PER_LAYER_NAMES:
        fn, stat = name.rsplit(".", 1)
        value = stats[fn][stat] if fn in stats else 0.0
        if fn.startswith("cli.run."):
            value = run_s[fn[len("cli.run."):]]
        metrics[name] = (value, spec.unit_of(name))
    metrics["trace.overhead_s"] = (traced_s - statistics.median(base), "s")
    if wl.name == "cli_fixtures":
        env = dict(os.environ, PYTHONPATH=str(w.ROOT / "src"))
        bare = statistics.median(
            process_seconds([sys.executable, "-c", "pass"])
            for _ in range(PROBES))
        imp = statistics.median(
            process_seconds([sys.executable, "-c", "import toricstacks.cli"],
                            env) for _ in range(PROBES))
        metrics["cli.interpreter_s"] = (bare, "s")
        metrics["cli.import_s"] = (imp - bare, "s")
    census = spans.shape_census(rec.spans)
    path = OUT / ("trace-%s-seed%d.json" % (wl.name, wl.seed))
    rec.write(path, {"workload": wl.name, "seed": wl.seed,
                     "census": census})
    print("spans: %d written to %s" % (len(rec.spans),
                                       path.relative_to(w.ROOT)))
    shapes = list(census["shapes"].items())
    print("cokernel shapes (rows x cols: calls), %d distinct, largest entry "
          "%d bits: %s" % (len(shapes), census["entry_bits_max"],
                           ", ".join("%s: %d" % s for s in shapes[:12])))
    return metrics, len(base) * len(ops) + len(lat), fails


def run_one(args) -> int:
    t0 = perf_counter()
    wl = w.setup(args.workload, args.seed)
    print("setup in this process: %.4f s, %d ops per pass"
          % (perf_counter() - t0, len(wl.ops)))
    if args.trace:
        metrics, attempted, fails = per_layer(wl, args.seconds)
    else:
        setup_s, setup_raw = setup_seconds(args.workload, args.seed)
        metrics, notes, attempted, fails = end_to_end(wl, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        notes["setup_s"] = "median of %d fresh processes; %.6g s unscaled" \
            % (PROBES, setup_raw)
        for name, (value, unit) in metrics.items():
            print("%-13s %.6g %s (%s)" % (name, value, unit, notes[name]))
    for msg in fails[:20]:
        print("FAILED %s" % msg, file=sys.stderr)
    result = {"correct": not fails, "attempted": attempted,
              "failed": len(fails),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not fails else 1


def run_all(args) -> int:
    """Each workload in its own process; a summary table; BENCHMARK.json."""
    rows, ok = [], True
    for name in w.NAMES:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print("== %s%s" % (name, "" if name in spec.WORKLOADS
                                else " (not gated: not in BENCHMARK.json)"),
              flush=True)
        done = subprocess.run(argv, cwd=w.ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            ok = False
            print("%s exited with %d and no result" % (name, done.returncode))
            continue
        ok = ok and result["correct"]
        rows.append((name, "fail_ratio", "%d/%d" % (result["failed"],
                                                    result["attempted"]),
                     "ops"))
        for metric, m in result["metrics"].items():
            rows.append((name, metric, "%.6g" % m["value"], m["unit"]))
    print()
    for row in rows:
        print("%-13s %-34s %12s %s" % row)
    path = spec.write_manifest(w.ROOT)
    print("wrote %s" % path.relative_to(w.ROOT))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=w.NAMES)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and write BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        reference_s = statistics.median(hostspeed.loop_timings())
        t0 = perf_counter()
        w.setup(args.workload, args.seed)
        print(perf_counter() - t0, reference_s)
        return 0
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
