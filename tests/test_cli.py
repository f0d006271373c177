"""Command-line surface: formats, exit codes, round trips."""

import contextlib
import csv
import io
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wide_spec
from pcsamp import cli, enumerate_atlas, random_spec
from pcsamp.cli import main

RUNNING = {
    "T": "1",
    "regions": [
        {"g": "4", "n": 2, "f": "1/4"},
        {"g": "2", "n": 3, "f": "1/2"},
    ],
    "observations": "all",
}

CHAIN = {
    "T": "1",
    "regions": [
        {"g": "4", "n": 3, "f": "1/3"},
        {"g": "2", "n": 2, "f": "1/4"},
    ],
    "observations": [[3, 1]],
}


@pytest.fixture
def running_file(tmp_path):
    path = tmp_path / "running.json"
    path.write_text(json.dumps(RUNNING))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    return str(path)


def test_validate_ok(running_file, capsys):
    assert main(["validate", running_file]) == 0
    assert "2 region(s)" in capsys.readouterr().out


def test_validate_genericity_exit2(tmp_path, capsys):
    bad = dict(RUNNING, regions=[{"g": "4", "n": 2, "f": "1/4"}, {"g": "2", "n": 3, "f": "3/4"}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 2
    assert "GenericityViolation (i=1,K=1)" in capsys.readouterr().err


def test_validate_rejects_float_rationals(tmp_path, capsys):
    bad = dict(RUNNING, regions=[{"g": 4.0, "n": 2, "f": "1/4"}, {"g": "2", "n": 3, "f": "1/2"}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 2


def test_validate_zero_denominator_exit2(tmp_path, capsys):
    bad = dict(RUNNING, regions=[{"g": "4", "n": 2, "f": "1/0"}, {"g": "2", "n": 3, "f": "1/2"}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ScenarioError region 1 f:")
    assert "Traceback" not in err


@pytest.mark.parametrize("n, shown", [(2.5, "2.5"), (True, "True"), ("3", "'3'")])
def test_validate_non_integer_n_exit2(tmp_path, capsys, n, shown):
    bad = dict(RUNNING, regions=[{"g": "4", "n": n, "f": "1/4"}, {"g": "2", "n": 3, "f": "1/2"}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"RegionViolation n_1 must be an integer, got {shown}\n"


def test_patterns_table(running_file, capsys):
    assert main(["patterns", running_file]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 4   # header + three cells
    assert "3/4" in out


def test_patterns_csv_columns(running_file, capsys):
    assert main(["patterns", running_file, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["delta_lo", "delta_hi", "eta_1", "eta_2"]
    assert rows[1] == ["0", "1/4", "2", "3"]
    assert len(rows) == 4


def test_patterns_single_region(tmp_path, capsys):
    doc = {"T": "1", "regions": [{"g": "5", "n": 3, "f": "1/2"}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["patterns", str(path), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3   # header + two cells


def test_infer_json(running_file, capsys):
    assert main(["infer", running_file, "--ref", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["C"] == [0, 2, 5]
    assert payload["U"] == []
    assert payload["intervals"][1] == {"i": 1, "lo": 1, "hi": 2, "knowledge": "T"}


# a plus chain right of l = 0 and its mirror, a minus chain left of l = 2;
# each is anchored at its member nearest the reference
MIRRORED_CHAIN = dict(CHAIN, regions=CHAIN["regions"][::-1], observations=[[1, 3]])
CHAIN_INFER = {
    "plus": (CHAIN, 0, {
        "table": (
            "i  c  g_lo  g_hi  width  knowledge  chain\n"
            "0  0  0     0     0      reference\n"
            "1  3  2     4     2      2T         chain@1\n"
            "2  4  3     5     2      2T         chain@1\n"
        ),
        "csv": (
            "i,c,g_lo,g_hi,width,knowledge,chain\n"
            "0,0,0,0,0,reference,\n"
            "1,3,2,4,2,2T,chain@1\n"
            "2,4,3,5,2,2T,chain@1\n"
        ),
        "json": {
            "l": 0, "C": [0, 3, 4], "U": [1, 2],
            "intervals": [
                {"i": 0, "lo": 0, "hi": 0, "knowledge": "reference"},
                {"i": 1, "lo": 2, "hi": 4, "knowledge": "2T"},
                {"i": 2, "lo": 3, "hi": 5, "knowledge": "2T"},
            ],
            "chains": [{"side": "plus", "anchor": 1, "length": 1, "members": [1, 2]}],
        },
    }),
    "minus": (MIRRORED_CHAIN, 2, {
        "table": (
            "i  c  g_lo  g_hi  width  knowledge  chain\n"
            "0  4  -5    -3    2      2T         chain@1\n"
            "1  3  -4    -2    2      2T         chain@1\n"
            "2  0  0     0     0      reference\n"
        ),
        "csv": (
            "i,c,g_lo,g_hi,width,knowledge,chain\n"
            "0,4,-5,-3,2,2T,chain@1\n"
            "1,3,-4,-2,2,2T,chain@1\n"
            "2,0,0,0,0,reference,\n"
        ),
        "json": {
            "l": 2, "C": [4, 3, 0], "U": [0, 1],
            "intervals": [
                {"i": 0, "lo": -5, "hi": -3, "knowledge": "2T"},
                {"i": 1, "lo": -4, "hi": -2, "knowledge": "2T"},
                {"i": 2, "lo": 0, "hi": 0, "knowledge": "reference"},
            ],
            "chains": [{"side": "minus", "anchor": 1, "length": 1, "members": [0, 1]}],
        },
    }),
}


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_infer_chain_columns(tmp_path, capsys, side, fmt):
    doc, ref, expected = CHAIN_INFER[side]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert main(["infer", str(path), "--ref", str(ref), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert (json.loads(out) if fmt == "json" else out) == expected[fmt]


def test_estimate_cells_and_energy(running_file, capsys):
    assert main(["estimate", running_file, "--ref", "0"]) == 0
    out = capsys.readouterr().out
    assert "closed-form energy: 2" in out
    assert "known" in out and "midpoint" in out


def test_estimate_csv_columns(running_file, capsys):
    assert main(["estimate", running_file, "--ref", "0", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["cell_lo", "cell_hi", "value", "provenance"]
    assert ["0", "1", "4", "known"] in rows


def test_estimate_needs_ref_or_sweep(running_file, capsys):
    assert main(["estimate", running_file]) == 2
    assert capsys.readouterr().err == "ScenarioError estimate needs --ref L or --sweep\n"


@pytest.mark.parametrize("flags", [["--sweep", "--ref", "99"], ["--ref", "0", "--sweep"]])
def test_estimate_ref_and_sweep_are_exclusive(running_file, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", running_file, *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_repeated_calls_in_one_process_leak_no_state(running_file, capsys):
    first = ["estimate", running_file, "--sweep", "--format", "json"]
    assert main(first) == 0
    swept = capsys.readouterr().out
    assert main(["estimate", running_file, "--ref", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "cells" in payload and "energies" not in payload
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["infer", running_file])
        assert exc.value.code == 2
        assert "required: --ref" in capsys.readouterr().err
    assert main(first) == 0
    assert capsys.readouterr().out == swept


def _outcomes(argv: list[str]) -> tuple[tuple, tuple]:
    """(exit code, stdout, stderr) of ``main(argv)``, once as it runs and
    once with a parser that gives every subcommand in ``cli.COMMANDS`` its
    arguments."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    one = run()
    build = cli.build_parser
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda filled: build(cli.COMMANDS))
        every = run()
    return one, every


@pytest.mark.parametrize("argv", [
    ["-h"], *([name, "-h"] for name in cli.COMMANDS),
    [], ["nosuch", "FILE"], ["--", "estimate", "FILE", "--ref", "0"], ["-1", "estimate"],
    ["--nope", "validate", "FILE"],
    *([name, "example6" if name == "demo" else "FILE", "--nope"] for name in cli.COMMANDS),
    ["infer", "FILE"],
], ids=" ".join)
def test_one_subcommand_parser_prints_what_the_full_parser_prints(running_file, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "60")
    argv = [running_file if token == "FILE" else token for token in argv]
    one, every = _outcomes(argv)
    assert one == every
    assert one[0] in (0, 2) and (one[1] or one[2])


@pytest.mark.parametrize("argv", [
    ["validate", "FILE", "--format", "csv"],
    ["patterns", "FILE", "--float"],
    ["infer", "FILE", "--ref", "1", "--observations", "all"],
    ["estimate", "FILE", "--sweep", "--format", "json"],
    ["verify", "FILE", "--trials", "3", "--seed", "5"],
    ["demo", "example6"],
], ids=lambda argv: argv[0])
def test_one_subcommand_parser_parses_what_the_full_parser_parses(running_file, argv):
    argv = [running_file if token == "FILE" else token for token in argv]
    args = cli.build_parser(argv[:1]).parse_args(argv)
    assert args == cli.build_parser(cli.COMMANDS).parse_args(argv)
    assert args.func is cli.COMMANDS[argv[0]][2]


def test_estimate_sweep(running_file, capsys):
    assert main(["estimate", running_file, "--sweep"]) == 0
    out = capsys.readouterr().out
    assert "argmin l = 0" in out
    assert "largest-jump reference l = 0" in out
    assert "agree" in out


def test_sweep_on_partial_observations(capsys):
    chain = Path(__file__).resolve().parents[1] / "scenarios" / "chain.json"
    assert main(["estimate", str(chain), "--sweep", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["energies"] == [
        {"l": 0, "energy": "unavailable"},   # the chain lies right of l = 0
        {"l": 1, "energy": "10"},
        {"l": 2, "energy": "10"},
    ]
    assert (payload["argmin"], payload["best_reference"], payload["agrees"]) == (1, 0, False)


def test_estimate_sweep_json(running_file, capsys):
    assert main(["estimate", running_file, "--sweep", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["argmin"] == 0
    assert payload["best_reference"] == 0
    assert payload["agrees"] is True


def test_estimate_chain_energy_unavailable(chain_file, capsys):
    assert main(["estimate", chain_file, "--ref", "0"]) == 0
    out = capsys.readouterr().out
    assert "unavailable: chains present" in out
    assert "chain_interior" in out


def test_float_rendering(running_file, capsys):
    assert main(["patterns", running_file, "--format", "csv", "--float"]) == 0
    out = capsys.readouterr().out
    assert "0.75" in out
    assert "3/4" not in out


def _leaf_pairs(exact, approx):
    if isinstance(exact, dict):
        assert approx.keys() == exact.keys()
        for key in exact:
            yield from _leaf_pairs(exact[key], approx[key])
    elif isinstance(exact, list):
        assert len(approx) == len(exact)
        for pair in zip(exact, approx):
            yield from _leaf_pairs(*pair)
    else:
        yield exact, approx


@pytest.mark.parametrize("argv", [["patterns"], ["estimate", "--ref", "0"]])
def test_float_json_numbers_are_the_exact_fractions(running_file, capsys, argv):
    command = [argv[0], running_file, *argv[1:], "--format", "json"]
    assert main(command) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main([*command, "--float"]) == 0
    approx = json.loads(capsys.readouterr().out)
    floats = 0
    for e, a in _leaf_pairs(exact, approx):
        try:
            value = Fraction(e) if isinstance(e, str) else None
        except ValueError:
            value = None
        if value is None:
            assert a == e and type(a) is type(e)
        else:
            assert type(a) is float and a == float(value)
            floats += 1
    assert floats > 0


@pytest.mark.parametrize("flags", [["--ref", "0"], ["--sweep", "--format", "json"]])
def test_float_beyond_range_exit2_before_any_output(tmp_path, capsys, flags):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"regions": [{"g": "1e200", "n": 3, "f": "1/4"}, {"g": "2", "n": 3, "f": "1/3"}]}))
    assert main(["estimate", str(path), *flags, "--float"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ScenarioError ") and "beyond float range; drop --float" in captured.err
    assert main(["estimate", str(path), *flags]) == 0


def test_observations_json_round_trip(running_file, tmp_path, capsys):
    assert main(["patterns", running_file, "--format", "json"]) == 0
    dump = tmp_path / "patterns.json"
    dump.write_text(capsys.readouterr().out)

    assert main(["infer", running_file, "--ref", "0", "--observations", str(dump),
                 "--format", "json"]) == 0
    via_file = capsys.readouterr().out
    assert main(["infer", running_file, "--ref", "0", "--observations", "all",
                 "--format", "json"]) == 0
    via_all = capsys.readouterr().out
    assert via_file == via_all


def test_observations_csv_round_trip(running_file, tmp_path, capsys):
    obs_csv = tmp_path / "obs.csv"
    obs_csv.write_text("eta_1,eta_2\n2,3\n2,2\n1,3\n")
    assert main(["infer", running_file, "--ref", "0", "--observations", str(obs_csv),
                 "--format", "json"]) == 0
    via_csv = json.loads(capsys.readouterr().out)
    assert via_csv["C"] == [0, 2, 5]


def test_unachievable_observation_exit3(running_file, tmp_path, capsys):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps([[2, 3], [3, 3]]))
    assert main(["infer", running_file, "--ref", "0", "--observations", str(obs)]) == 3


def test_inconsistent_observations_exit3(tmp_path, capsys):
    doc = dict(RUNNING, observations=[[2, 3], [4, 3]])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    # (4,3) is not achievable here, which is reported as inconsistent
    assert main(["infer", str(path), "--ref", "0"]) == 3


def test_duplicate_observations_exit2(tmp_path):
    doc = dict(RUNNING, observations=[[2, 3], [2, 3]])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_verify_green(running_file, capsys):
    assert main(["verify", running_file, "--trials", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "FAIL" not in out


def test_verify_reports_the_inverted_span_pair_as_a_fail_row(tmp_path, capsys):
    # a valid full-atlas scenario whose adjacent-pair check meets the known
    # inverted forced-span defect: one FAIL row, not a traceback
    regions = [
        {"g": g, "n": n, "f": f"{k}/97"}
        for g, n, k in (("-4", 2, 89), ("-2", 2, 72), ("4", 2, 87), ("1", 6, 57))
    ]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"T": "1", "regions": regions, "observations": "all"}))
    assert main(["verify", str(path), "--trials", "3", "--seed", "5", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"][:5]
    assert [c["status"] for c in checks] == ["pass"] * 4 + ["FAIL"]
    assert checks[4]["name"] == "width-two-energy-equality"
    assert checks[4]["detail"] == "pair at cell 2, l=0: forced span for region 2 is inverted"


def test_verify_checks_the_scenario_observations(capsys):
    example6 = Path(__file__).resolve().parents[1] / "scenarios" / "example6.json"
    assert main(["verify", str(example6), "--trials", "3", "--seed", "5", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-2] == {
        "name": "scenario-observations", "status": "pass",
        "detail": "truth inside every interval at all 4 references; truth energy = closed form at 4",
    }


def test_verify_reports_the_anchored_run_as_a_fail_row(tmp_path, capsys):
    # the scenario's own pattern ties both discontinuities to the reference:
    # the inverted forced span is one FAIL row, not a traceback
    regions = [{"g": "-2", "n": 2, "f": "58/97"}, {"g": "4", "n": 2, "f": "40/97"}]
    path = tmp_path / "anchored.json"
    path.write_text(json.dumps({"T": "1", "regions": regions, "observations": [[1, 1]]}))
    assert main(["verify", str(path), "--trials", "3", "--seed", "5", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 5 + ["FAIL", "pass"]
    assert checks[5] == {
        "name": "scenario-observations", "status": "FAIL", "detail": "l=0: forced span for region 2 is inverted",
    }


def test_verify_unachievable_observation_exit3(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(RUNNING, observations=[[2, 3], [3, 3]])))
    assert main(["verify", str(path), "--trials", "3", "--seed", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "InconsistentObservations: observed pattern [3, 3] is not achievable for this signal\n"


@pytest.mark.parametrize("flag, ceiling", [("--trials", cli.MAX_TRIALS)])
def test_verify_ceilings_exit2_before_any_work(running_file, capsys, monkeypatch, flag, ceiling):
    def refuse(*args, **kwargs):
        raise AssertionError("verify started work above a ceiling")
    monkeypatch.setattr(cli, "verify_scenario", refuse)
    monkeypatch.setattr(cli, "exhaustive_consistency_sweep", refuse)
    argv = ["verify", running_file, "--trials", "3", "--seed", "5"]
    argv[argv.index(flag) + 1] = str(ceiling + 1)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ScenarioError {flag} must be at most {ceiling}\n"


def test_verify_work_ceiling_exit2_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify started work")
    monkeypatch.setattr(cli, "verify_scenario", refuse)
    monkeypatch.setattr(cli, "exhaustive_consistency_sweep", refuse)

    def scenario(m):
        spec = wide_spec(random.Random(3), m, 211)
        regions = [{"g": str(g), "n": n, "f": str(f)} for g, n, f in zip(spec.g, spec.n, spec.f)]
        path = tmp_path / f"wide{m}.json"
        path.write_text(json.dumps({"T": "1", "regions": regions}))
        return str(path)

    # m (m + 1) / 2 runs x 120 offsets + (m + 1) x m first exceeds the cap at m = 202
    with pytest.raises(AssertionError, match="verify started work"):
        main(["verify", scenario(201)])
    path = scenario(202)
    start = time.perf_counter()
    assert main(["verify", path]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "ScenarioError verify work for m = 202 is 2501366 (region runs"
                                       f" x 120 offsets + references x m), above the limit of {cli.MAX_VERIFY_WORK}\n")


def test_verify_seed_defaults_to_zero_whatever_the_environment(running_file, capsys, monkeypatch):
    monkeypatch.setenv("PCSAMP_SEED", "5")
    assert main(["verify", running_file, "--trials", "3", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1]["name"] == "random-consistency-sweep(seed=0)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "{missing}"], r"ScenarioError cannot read scenario .*missing\.json: .+"),
        (["infer", "{running}", "--ref", "3"], r"ScenarioError --ref must lie in 0\.\.2"),
        (["estimate", "{running}", "--ref", "-1"], r"ScenarioError --ref must lie in 0\.\.2"),
        (["verify", "{running}", "--trials", "0"], r"ScenarioError --trials must be at least 1"),
        (["demo", "nope"], r"ScenarioError unknown demo 'nope'; available: example6"),
    ],
    ids=["missing-file", "infer-ref", "estimate-ref", "verify-trials", "demo-name"],
)
def test_bad_arguments_exit2_with_one_line(running_file, tmp_path, capsys, argv, message):
    paths = {"running": running_file, "missing": str(tmp_path / "missing.json")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(message + "\n", captured.err)


def test_validate_counts_explicit_observations(chain_file, capsys):
    assert main(["validate", chain_file]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "observations: 1 pattern(s)"


def test_demo_example6(capsys):
    assert main(["demo", "example6"]) == 0
    out = capsys.readouterr().out
    assert "D_1: 2T, D_2: 2T, D_3: T" in out
    assert "D_0: T, D_1: T, D_2: T" in out


def test_physical_units_scale(tmp_path, capsys):
    doc = dict(RUNNING, T="1/2")
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", str(path), "--ref", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    first = payload["cells"][0]
    assert first["cell_hi"] == "1"
    assert first["x_hi"] == "1/2"
    assert payload["closed_form_energy"] == "2"
    assert payload["closed_form_energy_physical"] == "1"


def test_physical_units_in_every_format(tmp_path, capsys):
    path = tmp_path / "three_halves.json"
    path.write_text(json.dumps(dict(RUNNING, T="3/2")))
    argv = ["estimate", str(path), "--ref", "0", "--format"]

    assert main(argv + ["table"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["cell_lo", "cell_hi", "x_lo", "x_hi", "value", "provenance"]
    assert table[2].split() == ["1", "2", "3/2", "3", "3", "midpoint"]
    assert table[-2:] == [
        "outside the listed cells the estimate is 0",
        "closed-form energy: 2 (units g^2*T) = 3 physical",
    ]

    assert main(argv + ["csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["cell_lo", "cell_hi", "value", "provenance"]
    assert rows[2] == ["1", "2", "3", "midpoint"]
    assert len(rows) == 5   # header and four cells, no notes

    assert main(argv + ["json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["T"] == "3/2"
    assert (payload["cells"][1]["x_lo"], payload["cells"][1]["x_hi"]) == ("3/2", "3")
    assert payload["closed_form_energy_physical"] == "3"


@pytest.mark.parametrize(
    "command, name, content",
    [
        ("infer", "obs.csv", b"eta_1,eta_2\n2,x\n"),                    # non-integer cell
        ("infer", "obs.csv", b"eta_1,eta_3\n2,3\n"),                    # no eta_2 column
        ("infer", "obs.csv", b"eta_1,eta_2\n2,3\n2\n"),                 # short row
        ("infer", "obs.json", b"[[2, 3], [2, \xff]]"),                  # not UTF-8
        ("infer", "obs.json", b"[[2, " + b"9" * 5000 + b"]]"),          # over-long integer
        ("infer", "obs.json", b"[" * 100000),                          # over-deep nesting
        ("validate", "scenario.json", json.dumps(RUNNING).encode() + b"\xff"),  # not UTF-8
    ],
    ids=["csv-cell", "csv-column", "csv-row", "json-utf8", "json-digits", "json-depth", "scenario-utf8"],
)
def test_unreadable_input_exit2(running_file, tmp_path, capsys, command, name, content):
    bad = tmp_path / name
    bad.write_bytes(content)
    if command == "validate":
        argv = ["validate", str(bad)]
    else:
        argv = [command, running_file, "--ref", "0", "--observations", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ScenarioError ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def running_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("property")
    (path / "running.json").write_text(json.dumps(RUNNING))
    return path


# two-column count tables; some rows are achievable patterns of RUNNING
_ROWS = st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=1, max_size=3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    content=st.one_of(
        st.binary(max_size=64),
        _ROWS.map(lambda rows: json.dumps(rows).encode()),
        _ROWS.map(lambda rows: "\n".join(",".join(map(str, r)) for r in rows).encode()),
    ),
    suffix=st.sampled_from([".csv", ".json"]),
)
def test_any_observations_file_exits_cleanly(running_dir, content, suffix):
    """Any bytes, or small count tables as JSON or CSV, give exit 0, 2 or 3."""
    obs = running_dir / f"obs{suffix}"
    obs.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["infer", str(running_dir / "running.json"), "--ref", "0",
                     "--observations", str(obs)])
    assert code in (0, 2, 3)


_JSON_LEAVES = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", '"\\"\n\t\x00\x1f', "é€😀", "\u2028"]),
    st.fractions(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]),
    st.lists(st.integers(), min_size=1),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25,
)


@pytest.mark.parametrize("default", [str, float])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(value=_JSON_TREES)
def test_json_writer_equals_the_stdlib(default, value):
    assert cli._json_text(value, default) == json.dumps(value, indent=2, default=default)


# the known defect of count-only intervals, the one failure the fuzz below expects
INVERTED_SPAN = re.compile(r"forced span for region \d+ is inverted")


def _fuzz_cases(rng, count):
    """(regions, observations, reference) of ``count`` scenarios: first a
    pattern that ties both discontinuities to the reference, which meets
    the inverted forced span at l = 0, then random specs whose observations
    are a subset of their atlas; every third is mixed with another signal's
    patterns, and every third from the second on gains a copy of one
    pattern with a count moved by one."""
    yield [{"g": "-2", "n": 2, "f": "58/97"}, {"g": "4", "n": 2, "f": "40/97"}], [[1, 1]], 0
    for k in range(1, count):
        spec = random_spec(rng, m_range=(2, 5), n_range=(2, 3))
        patterns = [list(p.eta) for p in enumerate_atlas(spec).patterns]
        observed = rng.sample(patterns, rng.randint(1, len(patterns)))
        if k % 3 == 1:
            other = random_spec(rng, m_range=(spec.m, spec.m), n_range=(2, 3))
            observed += rng.sample([list(p.eta) for p in enumerate_atlas(other).patterns], rng.randint(1, 2))
        elif k % 3 == 2:
            moved = list(rng.choice(observed))
            moved[rng.randrange(spec.m)] += rng.choice((-1, 1))
            observed.append(moved)
        regions = [{"g": str(g), "n": n, "f": str(f)} for g, n, f in zip(spec.g, spec.n, spec.f)]
        yield regions, [list(v) for v in dict.fromkeys(map(tuple, observed))], rng.randint(0, spec.m)


def test_cli_fuzz_exits_cleanly(tmp_path):
    """Seeded scenarios through infer, estimate --ref, estimate --sweep and
    verify: every call exits 0, 2 or 3, or 1 from verify, and nothing
    escapes, except the inverted forced span of count-only intervals, which
    estimate --ref raises and verify reports as FAIL rows."""
    rng = random.Random(17)
    codes = []
    for k, (regions, observed, ref) in enumerate(_fuzz_cases(rng, 80)):
        path = tmp_path / f"fuzz{k}.json"
        path.write_text(json.dumps({"T": "1", "regions": regions, "observations": observed}))
        fmt = rng.choice(("table", "csv", "json"))
        for argv in (
            ["infer", str(path), "--ref", str(ref), "--format", fmt],
            ["estimate", str(path), "--ref", str(ref), "--format", fmt],
            ["estimate", str(path), "--sweep", "--format", fmt],
            ["verify", str(path), "--trials", "2", "--seed", str(k), "--format", "json"],
        ):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            except AssertionError as exc:
                assert argv[0] == "estimate" and "--ref" in argv and INVERTED_SPAN.fullmatch(str(exc)), argv
                code = "inverted"
            if code == 1:
                assert argv[0] == "verify", argv
                failed = [c["detail"] for c in json.loads(out.getvalue())["checks"] if c["status"] == "FAIL"]
                assert failed and all(INVERTED_SPAN.search(d) for d in failed), failed
            else:
                assert code in (0, 2, 3, "inverted"), (argv, code)
            codes.append(code)
    assert codes[:4] == [0, "inverted", 0, 1]
    assert len(codes) == 320 and codes.count(0) > 120 and codes.count(3) > 120


SCENARIOS = Path(__file__).parents[1] / "scenarios"
# an int literal longer than Python 3.11's default limit on int digits, which
# json.load then refuses; Python 3.10 parses it, where every use below is invalid
_LONG_INT = "9" * 5000
_BAD_TEXT = ["", " ", "abc", "1/0", "1//4", "0x10", "4 2", "1/4/2", "--1", "1e", "1.5.2", "0.25f",
             "nan", "inf", "-inf", "NaN", "Infinity", "1e-3x", "\u00bd"]


def _malformed(rng, base: dict):
    """One mutation of the scenario ``base`` that must exit 2: a bad field,
    a huge int or a float where it is invalid, an unparseable or float
    string, a wrong shape, or broken JSON.  Returns the file's text."""
    data = json.loads(json.dumps(base))
    regions = data["regions"]
    region = rng.choice(regions)
    kind = rng.randrange(12)
    if kind == 0:   # a missing or renamed field
        key = rng.choice(("g", "n", "f"))
        value = region.pop(key)
        if rng.random() < 0.5:
            region[key.upper()] = value
    elif kind == 1:   # a field outside its range
        field, value = rng.choice([
            ("f", rng.choice(["0", "1", "-1/4", "5/4", 0, 1, -3])),
            ("n", rng.choice([1, 0, -3, None, True, False, [2], {"n": 2}, "2", "2.0", "1/0"])),
            ("T", rng.choice(["0", "-1", -2, 0, None, True, [1]])),
            ("g", rng.choice([None, True, [4], {"g": 4}])),
        ])
        (data if field == "T" else region)[field] = value
    elif kind == 2:   # a zero end amplitude, equal neighbours, or an integer run of fractional parts
        choice = rng.randrange(3)
        if choice == 0:
            rng.choice((regions[0], regions[-1]))["g"] = rng.choice(("0", 0, "0/7"))
        elif choice == 1:
            regions[1]["g"] = regions[0]["g"]
        else:
            regions[1]["f"] = "3/4"
    elif kind == 3:   # a huge int where every size is invalid
        huge = rng.choice((10**30, 10**400, -(10**30)))
        field = rng.choice(("f", "T", "n"))
        value = -abs(huge) if field != "f" else huge
        (data if field == "T" else region)[field] = value
    elif kind == 4:   # an int literal too long to parse on Python 3.11+, in an invalid place
        field = rng.choice(("f", "T", "n"))
        text = json.dumps(data)
        return text.replace('"T": "1"', f'"T": -{_LONG_INT}') if field == "T" else text.replace(
            '"f": "1/4"' if field == "f" else '"n": 2', f'"{field}": {"" if field == "f" else "-"}{_LONG_INT}'
        )
    elif kind == 5:   # a float number, a NaN or an infinity
        field = rng.choice(("g", "f", "T", "n"))
        value = rng.choice((rng.uniform(-10, 10), 0.25, 2.0, 3.5, math.nan, math.inf, -math.inf, 1e300))
        (data if field == "T" else region)[field] = value
    elif kind == 6:   # an unparseable or float string
        field = rng.choice(("g", "f", "T"))
        (data if field == "T" else region)[field] = rng.choice(_BAD_TEXT)
    elif kind == 7:   # observations of the wrong shape
        data["observations"] = rng.choice([
            "some", "ALL", [], {}, 5, None, [[2]], [[2, 3, 1]], [[2, True]], [[2, 3], [2, 3]],
            [[2, "3"]], [[2, 3.0]], [{"eta": [2]}], [[10**30]], [2, 3], [[[2, 3]]], [{"counts": [2, 3]}],
        ])
    elif kind == 8:   # regions of the wrong shape
        data["regions"] = rng.choice([
            [], {}, "regions", 2, None, [None], [[4, 2, "1/4"]], [regions[0], "region"],
            {"0": regions[0]}, [regions],
        ])
    elif kind == 9:   # a scenario that is not an object, or has no regions
        data = rng.choice([[data], "scenario", 4, None, {"T": "1"}, {"Regions": regions}])
    elif kind == 10:   # nesting deeper than the parser's recursion limit
        depth = rng.choice((2000, 10**5))
        return json.dumps(data).replace('"observations": "all"', f'"observations": {"[" * depth}{"]" * depth}')
    else:   # the file cut short
        text = json.dumps(data, indent=2)
        return text[:rng.randrange(len(text) - 1)]
    return json.dumps(data)


def test_cli_fuzz_malformed_scenarios_exit_2(tmp_path):
    """Seeded mutations of scenarios/running.json through every subcommand
    that reads a scenario: each call exits 2 with one error line on stderr,
    prints nothing, and raises nothing."""
    base = json.loads((SCENARIOS / "running.json").read_text())
    rng = random.Random(19)
    texts = [_malformed(rng, base) for _ in range(160)]
    assert len(set(texts)) > 90
    for k, text in enumerate(texts):
        path = tmp_path / f"bad{k}.json"
        path.write_text(text, encoding="utf-8")
        for argv in (
            ["validate", str(path)],
            ["patterns", str(path), "--format", "json"],
            ["infer", str(path), "--ref", "0"],
            ["estimate", str(path), "--ref", "1", "--format", "csv"],
            ["estimate", str(path), "--sweep"],
            ["verify", str(path), "--trials", "2"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, out.getvalue()) == (2, ""), (argv, text[:200], err.getvalue())
            assert re.fullmatch(r"\w+(Error|Violation):? .+\n", err.getvalue(), re.S), err.getvalue()
