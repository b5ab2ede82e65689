"""Tests of the benchmark itself: seeded inputs, the correctness gate and
the span arithmetic.  Run with `python -m pytest bench`."""

from __future__ import annotations

import signal

import hostspeed
import run
import spans
import workloads as w


def _labels(name: str, seed: int) -> list[str]:
    return [op.label for op in w.setup(name, seed).ops]


def test_seeded_orders_repeat_and_vary():
    for name in ("chow_corpus", "k_window", "cli_fixtures"):
        assert _labels(name, 1) == _labels(name, 1)
        assert _labels(name, 1) != _labels(name, 2)


def test_seeded_fans_repeat_and_vary():
    fan = w.import_package()["fan"]

    def drawn(seed):
        return [(f.to_data(), extra) for f, extra in w.seeded_fans(fan, seed)]
    first = drawn(1)
    assert first == drawn(1)
    assert first != drawn(2)


def test_gate_counts_a_planted_wrong_expectation():
    wl = w.setup("chow_corpus", 1)
    cone0 = w.corpus_cones()[0]
    exp = dict(w.load_expected("chow_corpus")[0])
    report = wl.mods["chow"].verify_vanishing(cone0, w.CORPUS_MAX_DEG)
    assert w.check_chow(exp, report) is None
    exp["pieces"] = [[k, free + 1, t] for k, free, t in exp["pieces"]]
    planted = w.Op("cone0", lambda: report,
                   lambda out: w.check_chow(exp, out))
    _, lat, fails = run.run_pass(wl, [planted])
    assert len(lat) == 1 and len(fails) == 1 and "pieces" in fails[0]


def test_gates_of_the_other_workloads_reject_wrong_outputs():
    mods = w.import_package()
    cone0 = w.corpus_cones()[0]
    k_exp = dict(w.load_expected("k_window")[0])
    report = mods["ktheory"].verify_k_vanishing(cone0, k_exp["box"])
    assert w.check_k(k_exp, report) is None
    assert w.check_k(dict(k_exp, window_rank=k_exp["window_rank"] + 1),
                     report)

    argv = ["validate", "fixtures/sigma_square.json"]
    cli_exp = {tuple(e["argv"]): e
               for e in w.load_expected("cli_fixtures")}[tuple(argv)]
    out = w.cli_inprocess(mods["cli"], argv)
    assert w.check_cli(cli_exp, out) is None
    assert w.check_cli(dict(cli_exp, stdout=cli_exp["stdout"] + " "), out)
    assert w.check_cli(dict(cli_exp, exit=1), out)

    f = w.complete_fan(mods["fan"], 2)
    ok, group, groups, refines = w.fan_op(mods, f, 0)
    assert w.check_fan(f, (ok, group, groups, refines)) is None
    assert w.check_fan(f, (ok, group, [groups[0], (2, (2,)), groups[2]],
                           refines))
    assert w.check_fan(f, (ok, (2, (2,)), groups, refines))
    assert w.check_fan(f, (ok, group, groups, False))


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("m.root", 0.0, 10.0, None),  # 0
        _span("m.f", 1.0, 4.0, 0),         # 1
        _span("m.g", 5.0, 9.0, 0),         # 2
        _span("m.g", 6.0, 7.0, 2),         # 3, recursive call of m.g
        _span("m.f", 7.5, 8.0, 2),         # 4
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.5, 1.0, 0.5]
    stats = spans.layer_stats(tree)
    assert stats["m.g"]["calls"] == 2
    assert stats["m.g"]["total_s"] == 4.0  # the nested call is not re-added
    assert stats["m.g"]["self_s"] == 3.5
    assert stats["m.f"]["total_s"] == 3.5
    assert stats["m.root"]["self_s"] == 3.0


def test_tail_has_ten_samples_beyond():
    values = [float(x) for x in range(1, 201)]
    assert run.tail(values) == 190.0
    assert sum(1 for x in values if x > run.tail(values)) == 10
    assert run.tail([3.0, 1.0, 2.0]) == 1.0


def test_tracing_reaches_every_binding_and_restores_them():
    mods = w.import_package()
    original = mods["intlinalg"].cokernel
    rec = spans.Recorder()
    with rec.installed(mods):
        assert mods["graded"].cokernel is not original
        mods["chow"].verify_vanishing(w.corpus_cones()[0], 2)
    for name in ("intlinalg", "graded", "cox", "chow", "ktheory", "fan"):
        assert getattr(mods[name], "cokernel") is original
    stats = spans.layer_stats(rec.spans)
    assert stats["graded.graded_piece"]["calls"] > 0
    assert stats["intlinalg.cokernel"]["calls"] > 0
    assert stats["chow.verify_vanishing"]["calls"] == 1
    assert 0 <= stats["graded.graded_piece"]["hit_ratio"] <= 1


def test_scaling_keeps_the_result_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    result, factor = hostspeed.run_scaled("loop", lambda: sum(range(10)))
    assert result == 45 and factor > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
