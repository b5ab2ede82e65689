import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from toricstacks.cli import VERBS, run
from toricstacks.fan import Fan, validate_fan
from toricstacks.schemas import VERB_SCHEMAS

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SQUARE = str(FIXTURES / "sigma_square.json")
STRONG = str(FIXTURES / "strongness_example.json")
BAD = str(FIXTURES / "bad_fan.json")


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


def test_validate_good_and_bad(capsys):
    assert run(["validate", SQUARE]) == 0
    assert "fan is valid" in out_of(capsys)
    assert run(["validate", BAD]) == 2
    text = out_of(capsys)
    assert "(0, 1)" in text and "(2, 3)" in text


def test_chow_groups_single_degree(capsys):
    assert run(["chow-groups", SQUARE, "--k", "2"]) == 0
    assert out_of(capsys) == "Z/2 + Z\n"


def test_chow_groups_all_degrees(capsys):
    assert run(["chow-groups", SQUARE]) == 0
    lines = out_of(capsys).splitlines()
    assert lines == ["A_0 = 0", "A_1 = Z/2", "A_2 = Z/2 + Z", "A_3 = Z"]


def test_verify_vanishing_report_ending(capsys):
    assert run(["verify-vanishing", SQUARE, "--max-deg", "4"]) == 0
    text = out_of(capsys)
    assert text.endswith("A^k_op vanishes for k=1..4 (checked)\n")
    assert "t_v -> -2s1 - 2s2" in text


def test_verify_vanishing_failure_exit(tmp_path, capsys):
    bad_cone = tmp_path / "bad_cone.json"
    bad_cone.write_text(json.dumps(
        {"rank": 2, "rays": [[1, 0], [1, 4]], "max_cones": [[0, 1]]}))
    assert run(["verify-vanishing", str(bad_cone)]) == 1
    assert "NOT verified" in out_of(capsys)
    assert run(["verify-k-vanishing", str(bad_cone)]) == 1
    assert "identification failed" in out_of(capsys)


def test_verify_k_vanishing_square(capsys):
    assert run(["verify-k-vanishing", SQUARE]) == 0
    text = out_of(capsys)
    assert "window rank: 4" in text
    assert "window torsion: none" in text
    assert "(checked at box radius 3)" in text


def test_strongness_example(capsys):
    assert run(["strongness", STRONG]) == 0
    text = out_of(capsys)
    assert "chart D(x1*x2): in span: no; minimal power: 5" in text
    assert "NOT strong" in text
    assert "x5^15 is locally generated" in text


def test_strongness_bound_exhaustion(capsys):
    assert run(["strongness", STRONG, "--bound", "2"]) == 0
    text = out_of(capsys)
    assert "unknown (bound 2 exhausted)" in text
    assert "no common power found" in text


def test_json_reports_match_schemas(tmp_path, capsys):
    # The cone of test_verify_vanishing_failure_exit (K unidentified, Chow
    # not verified) and one whose Chow identification fails as well.
    unidentified = tmp_path / "unidentified.json"
    unidentified.write_text(json.dumps(
        {"rank": 2, "rays": [[1, 0], [1, 4]], "max_cones": [[0, 1]]}))
    no_chow = tmp_path / "no_chow.json"
    no_chow.write_text(json.dumps(
        {"rank": 3, "rays": [[3, 1, -1], [-1, -1, 0], [-1, -2, 3]],
         "max_cones": [[0, 1, 2]]}))
    cases = [
        ["validate", SQUARE],
        ["subdivide", SQUARE],
        ["cox", SQUARE],
        ["chow-stack", SQUARE],
        ["chow-groups", SQUARE],
        ["ktheory-stack", SQUARE],
        ["verify-vanishing", SQUARE],
        ["verify-k-vanishing", SQUARE],
        ["strongness", STRONG],
        ["validate", BAD],
        # the failure shapes
        ["verify-vanishing", str(unidentified)],
        ["verify-vanishing", str(no_chow)],
        ["verify-k-vanishing", str(unidentified)],
        ["strongness", STRONG, "--bound", "2"],
    ]
    payloads = []
    for argv in cases:
        run(argv + ["--json"])
        payloads.append(json.loads(out_of(capsys)))
        jsonschema.validate(payloads[-1], VERB_SCHEMAS[argv[0]])
    chow, no_chow, k, strong = payloads[-4:]
    assert chow["identified"] and not chow["conclusion"]
    assert no_chow["extra_row"] is None and no_chow["verdicts"] == []
    assert k["window_rank"] is None and k["torsion"] is None
    assert None in [c["min_power"] for c in strong["charts"]]
    assert strong["power_lcm"] is None


def test_subdivide_json_round_trips(capsys):
    assert run(["subdivide", SQUARE, "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["star_ray"] == [0, 0, 1]
    fan = Fan.from_data(payload["fan"]["rank"], payload["fan"]["rays"],
                        payload["fan"]["max_cones"])
    assert validate_fan(fan).ok
    assert len(fan.rays) == 5


def test_cox_text(capsys):
    assert run(["cox", SQUARE]) == 0
    text = out_of(capsys)
    assert "character group: Z/2 + Z" in text
    assert "x1 -> (1, 1)" in text


def test_ktheory_stack_on_subdivision(tmp_path, capsys):
    run(["subdivide", SQUARE, "--json"])
    payload = json.loads(out_of(capsys))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(payload["fan"]))
    assert run(["ktheory-stack", str(sub)]) == 0
    text = out_of(capsys)
    assert "ideal generators: 1 - e1^-2, 1 - e2^-2" in text


def test_deterministic_output(capsys):
    for argv in (["verify-vanishing", SQUARE],
                 ["verify-k-vanishing", SQUARE, "--json"],
                 ["strongness", STRONG, "--json"]):
        run(argv)
        first = out_of(capsys)
        run(argv)
        assert out_of(capsys) == first


def test_input_errors_exit_2(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["cox", str(garbled)]) == 2

    nonprimitive = tmp_path / "nonprimitive.json"
    nonprimitive.write_text(json.dumps(
        {"rank": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}))
    assert run(["cox", str(nonprimitive)]) == 2

    torus_factor = tmp_path / "torus.json"
    torus_factor.write_text(json.dumps(
        {"rank": 2, "rays": [[1, 0]], "max_cones": [[0]]}))
    assert run(["cox", str(torus_factor)]) == 2

    missing_keys = tmp_path / "missing.json"
    missing_keys.write_text(json.dumps({"rays": [[1, 0]]}))
    assert run(["validate", str(missing_keys)]) == 2

    assert run(["cox", "does_not_exist.json"]) == 2
    assert run(["chow-groups", SQUARE, "--k", "9"]) == 2
    assert run(["subdivide", SQUARE, "--cone", "3"]) == 2
    assert run(["verify-k-vanishing", SQUARE, "--box", "1"]) == 2
    assert run(["strongness", SQUARE]) == 2  # no divisor_ray key, no --ray
    capsys.readouterr()


@pytest.mark.parametrize("payload, message", [
    ({"rank": 2, "rays": [[1, 0], [True, 1]], "max_cones": [[0, 1]]},
     "ray 1 entry 0 is not an integer: true"),
    ({"rank": 2, "rays": [[1, 0], [1.5, 1]], "max_cones": [[0, 1]]},
     "ray 1 entry 0 is not an integer: 1.5"),
    ({"rank": 2, "rays": [[1, 0], ["a", 1]], "max_cones": [[0, 1]]},
     'ray 1 entry 0 is not an integer: "a"'),
    ({"rank": True, "rays": [[1]], "max_cones": [[0]]},
     "rank is not an integer: true"),
    ({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1.0]]},
     "cone 0 entry 1 is not an integer: 1.0"),
])
@pytest.mark.parametrize("verb", ["validate", "cox"])
def test_non_integer_fan_entries_exit_2(payload, message, verb, tmp_path,
                                        capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(payload))
    assert run([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("field, value, message", [
    ("weights", 5, "weights is not an array: 5"),
    ("weights", [1, 2, 3, 4, 5], "weights row 0 is not an array: 1"),
    ("weights", [[3, -2, 1, -2, 0], [2, -3, 0, -3, 1.5]],
     "weights row 1 entry 4 is not an integer: 1.5"),
    ("weights", [[3, -2, 1, -2, 0], [2, -3, 0, -3, True]],
     "weights row 1 entry 4 is not an integer: true"),
    ("weights", [[3, -2, 1, -2, 0], [2, -3, 0, -3]],
     "weights rows must have one entry per ray"),
    ("divisor_ray", 4.7, "divisor_ray is not an integer: 4.7"),
    ("divisor_ray", True, "divisor_ray is not an integer: true"),
])
def test_strongness_non_integer_input_exit_2(field, value, message, tmp_path,
                                             capsys):
    payload = json.loads(Path(STRONG).read_text())
    payload[field] = value
    path = tmp_path / "strong.json"
    path.write_text(json.dumps(payload))
    assert run(["strongness", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def assert_usage_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: toricstacks ")
    assert "\ntoricstacks: error: " in captured.err


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert_usage_error(capsys)
    assert run(["frobnicate", "x.json"]) == 2
    assert_usage_error(capsys)
    assert run(["chow-groups"]) == 2
    assert_usage_error(capsys)


@pytest.mark.parametrize("argv, result", [
    (["cox", SQUARE, "--json"], ({"x": {1, 2}}, [], 0)),
    (["cox", SQUARE], ({}, ["line", 1], 0)),
])
def test_render_failure_exits_3(argv, result, monkeypatch, capsys):
    # A report that cannot be rendered is an internal error, not a verdict.
    monkeypatch.setitem(VERBS, "cox", (lambda ns: result, *VERBS["cox"][1:]))
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: TypeError: ")


@pytest.mark.parametrize("argv", [
    ["verify-vanishing", SQUARE],
    ["cox", SQUARE, "--json"],
    ["-h"],
    ["cox", "-h"],
])
def test_closed_stdout_exits_3(argv):
    # A reader that has gone away is an internal error, not a verdict: the
    # true conclusion on SQUARE must not exit 1, and neither may the help
    # text.  One stderr line names the failed write, and the flush at exit
    # adds no second error.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "toricstacks", *argv], cwd=ROOT,
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
                str(ROOT / "src"), os.environ.get("PYTHONPATH")]))))
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr.startswith("internal error: BrokenPipeError: ")
    assert "Exception ignored" not in done.stderr
    assert done.stderr.count("BrokenPipeError") == 2  # the line, the trace


def test_reindexing_max_cones_exit_2(tmp_path, capsys):
    # Fan.__init__ would drop entry 0, so --cone 1 would run on entry 2.
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, 2], [0, 1]],
                                "max_cones": [[0], [0, 1], [1, 2]]}))
    for argv in (["validate", str(path)],
                 ["verify-vanishing", str(path), "--cone", "1"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cone 0 is a face of cone 1\n"


@pytest.mark.parametrize("verb", ["subdivide", "cox", "chow-stack",
                                  "chow-groups", "ktheory-stack",
                                  "verify-vanishing", "verify-k-vanishing",
                                  "strongness"])
def test_compute_verbs_reject_invalid_fan(verb, capsys):
    assert run(["validate", BAD]) == 2
    report = out_of(capsys)
    assert run([verb, BAD, "--ray", "0"] if verb == "strongness"
               else [verb, BAD]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + report


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(_fan):
        raise AssertionError("projection does not kill a relation")

    # The cox verb imports cox from its module when it runs.
    monkeypatch.setattr("toricstacks.cox.cox", broken)
    assert run(["cox", SQUARE]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: AssertionError: "
                                   "projection does not kill a relation\n"
                                   "Traceback (most recent call last):\n")


@pytest.mark.parametrize("verb", ["verify-vanishing", "verify-k-vanishing"])
def test_lower_dimensional_cone_exits_2(verb, tmp_path, capsys):
    path = tmp_path / "rays.json"
    path.write_text(json.dumps(
        {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0], [1]]}))
    assert run([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cone has dimension 1 in rank 2; the "
                            "comparison needs a full-dimensional cone\n")


@pytest.mark.parametrize("verb", ["verify-vanishing", "verify-k-vanishing"])
def test_zero_cone_exits_2(verb, tmp_path, capsys):
    # Rank 0: the zero cone is full-dimensional but has no star vector.
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rank": 0, "rays": [], "max_cones": [[]]}))
    assert run([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot subdivide at the zero cone\n"


def test_chow_groups_degree_out_of_range_exits_2(capsys):
    for k in ("-1", "4"):
        assert run(["chow-groups", SQUARE, "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k must be in 0..3\n"


@pytest.mark.parametrize("verb, module, name", [
    ("verify-vanishing", "chow", "verify_vanishing"),
    ("verify-k-vanishing", "ktheory", "verify_k_vanishing"),
    ("chow-groups", "fan", "chow_groups"),
])
def test_bare_value_error_exits_3(verb, module, name, monkeypatch, capsys):
    def broken(*_args):
        raise ValueError("not an input error")

    monkeypatch.setattr("toricstacks.%s.%s" % (module, name), broken)
    assert run([verb, SQUARE]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ValueError: not an "
                                   "input error\n")


def test_user_errors_share_one_base():
    from toricstacks.cli import InputError
    from toricstacks.cox import TorusFactorError
    from toricstacks.fan import GeometryError, UserError

    for cls in (InputError, GeometryError, TorusFactorError):
        assert issubclass(cls, UserError)
    assert issubclass(UserError, ValueError)
