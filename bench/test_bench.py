"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, CheckFailure  # noqa: E402

# a few leading items per workload keep the traced tests short
SMALL = {"count": 2, "minimax": 6, "chains": 6, "cli": 10}


@pytest.fixture(scope="module")
def pc():
    return run.import_pcsamp()


def _signals(items):
    return [(it.sig, it.args) for it in items]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_items_are_deterministic_per_seed_and_valid(name, pc, tmp_path):
    workload = WORKLOADS[name]
    first = workload.make_items(7, tmp_path / "a", workload.size)
    again = workload.make_items(7, tmp_path / "a", workload.size)
    other = workload.make_items(8, tmp_path / "b", workload.size)
    assert _signals(first) == _signals(again)
    assert [it.sig for it in first] != [it.sig for it in other]
    for item in first:
        spec = pc.validate_spec(pc.SignalSpec.from_columns(**item.sig.columns()))
        assert spec.m == item.sig.m


def test_generator_is_valid_up_to_large_m(pc):
    rng = random.Random(3)
    for m in (1, 2, 40, 48, 96, 130):
        sig = gen.random_signal(rng, m, lambda r: r.randint(2, 5))
        pc.validate_spec(pc.SignalSpec.from_columns(**sig.columns()))
        cells = [(c.delta_lo, c.delta_hi, c.pattern.eta) for c in pc.enumerate_atlas(
            pc.SignalSpec.from_columns(**sig.columns())).cells]
        assert cells == gen.atlas(sig)


def _traced_counts(pc, name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], trace_items=SMALL[name])
    items = workload.make_items(11, tmp_path, workload.trace_items)
    tally, metrics, _, _ = run.traced_run(workload, pc, items)
    assert tally.wrong == 0
    return {k: v for k, v in metrics.items() if k in tracing.COUNT_NAMES or k.endswith(".calls")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, pc, tmp_path):
    first = _traced_counts(pc, name, tmp_path / "a")
    second = _traced_counts(pc, name, tmp_path / "b")
    assert first == second
    assert any(value for value, _ in first.values())


def test_tracer_wraps_every_binding_and_restores_it(pc):
    modules = {k: m for k, m in sys.modules.items() if k == "pcsamp" or k.startswith("pcsamp.")}
    before = {(k, attr): value for k, m in modules.items() for attr, value in vars(m).items()}
    with tracing.Tracer() as tracer:
        assert modules["pcsamp.oracle"].enumerate_atlas is not before[("pcsamp.sampler", "enumerate_atlas")]
        assert modules["pcsamp"].infer_model.__wrapped__ is before[("pcsamp.inference", "infer_model")]
        patched = {(mod.__name__, attr) for mod, attr, _ in tracer.patched}
    assert ("pcsamp.cli", "enumerate_atlas") in patched
    after = {(k, attr): value for k, m in modules.items() for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrong_answers_are_counted(pc, tmp_path):
    workload = WORKLOADS["count"]
    item = workload.make_items(5, tmp_path, 1)[0]
    atlas, rows = workload.run(pc, item)
    eta, offsets, runs = rows[0]
    bad = (atlas, [((eta[0] + 1,) + tuple(eta[1:]), offsets, runs)] + rows[1:])
    with pytest.raises(CheckFailure):
        workload.check(item, bad)
    tally = run.Tally()
    tally.step(dataclasses.replace(workload, run=lambda *_: bad), pc, item)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_benchmark_json_names_every_metric(pc, tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["cli"]
    items = workload.make_items(1, tmp_path, workload.size)
    _, metrics, _ = run.timed_run(workload, pc, items, 0)
    timed = set(metrics) | {"setup_s", "peak_rss_mib"}
    assert {m["name"] for m in spec["end_to_end"]} == timed
    traced = set(tracing.Tracer().metrics()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced


def test_chains_defect_is_in_its_slot_only(pc, tmp_path):
    workload = WORKLOADS["chains"]
    items = workload.make_items(13, tmp_path, 2 * workload.period)
    for k, item in enumerate(items):
        patterns, l = item.args
        model = pc.infer_model(pc.ObservationSet.of(patterns, item.g), l)
        if workloads.CHAINS_SLOTS[k % workload.period] is workloads.DEFECT:
            with pytest.raises(AssertionError, match="forced span for region .* is inverted"):
                pc.estimate_partial(model, item.g)
        else:
            pc.estimate_partial(model, item.g)


def test_chains_runs_attempt_and_fail_a_fixed_count(pc, tmp_path):
    def run_item(pc, item):
        patterns, l = item.args
        if gen.hits_inverted_span_defect(patterns, item.sig.m, l):
            raise AssertionError("forced span is inverted")

    workload = dataclasses.replace(WORKLOADS["chains"], run=run_item, check=lambda item, out: None)
    counts = set()
    for seed in (1, 2):
        items = workload.make_items(seed, tmp_path / str(seed), workload.size)
        tally, _, _ = run.timed_run(workload, pc, items, 20)
        counts.add((tally.attempted, tally.failed))
    assert counts == {(125, 5)}
