"""Command-line surface: formats, exit codes, round trips."""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_sweep_ref_alias(running_file, capsys):
    assert main(["sweep-ref", running_file, "--format", "json"]) == 0
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
    assert main(["verify", running_file, "--grid", "12", "--trials", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "FAIL" not in out


def test_verify_seed_env_fallback(running_file, capsys, monkeypatch):
    monkeypatch.setenv("PCSAMP_SEED", "5")
    assert main(["verify", running_file, "--grid", "12", "--trials", "3",
                 "--format", "json"]) == 0
    with_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("PCSAMP_SEED")
    assert main(["verify", running_file, "--grid", "12", "--trials", "3", "--seed", "5",
                 "--format", "json"]) == 0
    explicit = json.loads(capsys.readouterr().out)
    assert with_env == explicit


def test_bad_seed_env_only_affects_verify(running_file, capsys, monkeypatch):
    monkeypatch.setenv("PCSAMP_SEED", "abc")
    assert main(["validate", running_file]) == 0
    assert main(["verify", running_file, "--grid", "12", "--trials", "3"]) == 2
    assert "PCSAMP_SEED must be an integer" in capsys.readouterr().err
    assert main(["verify", running_file, "--grid", "12", "--trials", "3", "--seed", "5"]) == 0


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
