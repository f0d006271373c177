"""Acceptance suite: one test per criterion, one pass/fail line printed each.

All checks are exact (rational comparisons, zero tolerance); each criterion
also carries a wall-clock budget.  The random-signal corpus is drawn once
per session from a fixed seed so every criterion sees the same signals.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest
from conftest import amp

from pcsamp import (
    ObservationSet,
    SignalSpec,
    absolute_error_bound,
    best_reference,
    closed_form_energy,
    count_direct,
    cumulative_count,
    delta_chain,
    enumerate_atlas,
    estimate_full,
    estimate_partial,
    feasible_box,
    infer_model,
    perturbation_minimax_check,
    random_spec,
    translate,
    truth_function,
    validate_spec,
    worst_case_energy,
)

CORPUS_SEED = 2718
CORPUS_SIZE = 100


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_spec(rng, m_range=(1, 8)) for _ in range(CORPUS_SIZE)]


def _report(number: int, name: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail}, {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def test_criterion_1_pattern_cardinality(corpus):
    """Every signal admits exactly m+1 distinct count patterns."""
    started = time.perf_counter()
    for spec in corpus:
        atlas = enumerate_atlas(spec)
        assert len(atlas.cells) == spec.m + 1
        assert len(set(atlas.patterns)) == spec.m + 1
    _report(1, "pattern cardinality", True, f"{len(corpus)} signals, m+1 cells each", started, 5.0)


def test_criterion_2_count_equivalence(corpus):
    """Closed-form cumulative counts equal direct counting everywhere."""
    started = time.perf_counter()
    mismatches = 0
    offsets_checked = 0
    for spec in corpus:
        for j in range(1000):
            delta1 = Fraction(j, 1000)
            pattern = count_direct(spec, delta1)
            offsets = delta_chain(spec, delta1)
            cumulative = [0]
            for eta in pattern.eta:
                cumulative.append(cumulative[-1] + eta)
            for i in range(1, spec.m + 1):
                for span in range(spec.m - i + 1):
                    direct = cumulative[i + span] - cumulative[i - 1]
                    if direct != cumulative_count(spec, i, span, offsets[i - 1]):
                        mismatches += 1
            offsets_checked += 1
    _report(
        2, "count equivalence", mismatches == 0,
        f"{offsets_checked} exact offsets, all region runs, {mismatches} mismatches",
        started, 30.0,
    )


def test_criterion_3_round_trip(corpus):
    """Full pattern sets pin every discontinuity to width one, truth strictly
    inside, and the estimate reproduces the truth at every grid point."""
    started = time.perf_counter()
    for spec in corpus:
        obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
        for l in range(spec.m + 1):
            model = infer_model(obs, l)
            assert model.U == frozenset()
            truth_positions = translate(spec, l)
            for i in range(spec.m + 1):
                if i == l:
                    continue
                lo, hi = model.G[i]
                assert hi - lo == 1
                assert lo < truth_positions[i] < hi
            est = estimate_full(model, spec.g)
            truth = truth_function(spec, l)
            for n in range(model.G[0][0] - 1, model.G[spec.m][1] + 2):
                assert est.value_at(n) == truth.evaluate(n)
    _report(3, "round trip on full sets", True,
            f"{len(corpus)} signals, every reference, strict containment and grid agreement",
            started, 10.0)


def test_criterion_4_minimax_equality(corpus):
    """The oracle worst case of the full-set estimate equals the closed form
    at 11 exact placements per interval, independent of placement, and every
    probed cell perturbation strictly increases the worst case."""
    started = time.perf_counter()
    references = 0
    for spec in corpus:
        obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
        for l in range(spec.m + 1):
            model = infer_model(obs, l)
            est = estimate_full(model, spec.g)
            box = feasible_box(model)
            closed = closed_form_energy(model, spec.g)
            worst = worst_case_energy(est, spec.g, box, resolution=12)
            assert worst.value == closed
            for zone in worst.zones:
                # equal max and min over 11 interior placements: the energy
                # cannot depend on where the discontinuity falls
                assert zone.max_energy == zone.min_energy
                i = zone.members[0]
                jump = amp(spec.g, i) - amp(spec.g, i + 1)
                assert zone.max_energy == (jump / 2) ** 2
            probe = perturbation_minimax_check(est, spec.g, box, resolution=12)
            assert probe.passed and probe.all_strict
            references += 1
    _report(4, "minimax equality and perturbations", True,
            f"{references} reference choices, 11 placements per interval, all strict",
            started, 60.0)


def test_criterion_5_two_pattern_example():
    """Two patterns differing only in the last count: widths (2T, 2T, T)
    from the left reference but (T, T, T) from the right one."""
    started = time.perf_counter()
    spec = validate_spec(
        SignalSpec.from_columns(g=[4, 2, 1], n=[3, 3, 2], f=["1/4", "1/3", "1/5"])
    )
    atlas = enumerate_atlas(spec)
    observed = [(3, 3, 2), (3, 3, 1)]
    for eta in observed:
        assert any(cell.pattern.eta == eta for cell in atlas.cells)
    obs = ObservationSet.of(observed, spec.g)
    left = infer_model(obs, 0)
    right = infer_model(obs, 3)
    ok = (
        [left.width(i) for i in (1, 2, 3)] == [2, 2, 1]
        and [right.width(i) for i in (0, 1, 2)] == [1, 1, 1]
    )
    _report(5, "two-pattern widths", ok,
            "widths (2T,2T,T) at l=0 and (T,T,T) at l=3", started, 5.0)


def test_criterion_6_best_reference_law(corpus):
    """The energy-minimizing reference is the largest amplitude jump."""
    started = time.perf_counter()
    for spec in corpus:
        obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
        energies = {
            l: closed_form_energy(infer_model(obs, l), spec.g) for l in range(spec.m + 1)
        }
        arg = min(energies, key=lambda l: (energies[l], l))
        assert arg == best_reference(spec.g)
    _report(6, "best-reference law", True, f"{len(corpus)} signals, argmin = largest jump",
            started, 10.0)


def test_criterion_7_width_two_energy():
    """With width-two intervals and no chains, the oracle worst case equals
    the closed form weighting those intervals twice."""
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    # counts of at least 3 keep every region above one sample, so no chains
    specs = [random_spec(rng, m_range=(2, 6), n_range=(3, 5)) for _ in range(15)]
    specs.append(
        validate_spec(SignalSpec.from_columns(g=[4, 2, 1], n=[3, 3, 2], f=["1/4", "1/3", "1/5"]))
    )
    nonempty = 0
    for spec in specs:
        atlas = enumerate_atlas(spec)
        for k in range(spec.m):
            obs = ObservationSet.of([atlas.cells[k].pattern, atlas.cells[k + 1].pattern], spec.g)
            for l in (0, spec.m):
                model = infer_model(obs, l)
                if not model.chains.empty or not model.U:
                    continue
                closed = closed_form_energy(model, spec.g)
                est = estimate_partial(model, spec.g)
                # every width-two index is an isolated zone of the box
                assert model.U <= {z.members[0] for z in est.box.zones if not z.coupled}
                worst = worst_case_energy(est, spec.g, feasible_box(model), resolution=12)
                assert worst.value == closed
                nonempty += 1
    assert nonempty > 0
    _report(7, "width-two energy equality", True,
            f"{nonempty} constructed partial observation sets", started, 30.0)


def test_criterion_8_chain_estimate():
    """The single-pattern chain instance: hand-derived cells, including the
    (min+max)/2 interior cell, and strictly increasing perturbations on a
    joint grid of step 1/50."""
    started = time.perf_counter()
    obs = ObservationSet.of([(3, 1)], [4, 2])
    model = infer_model(obs, 0)
    est = estimate_partial(model, [4, 2])
    cells_ok = [(c.lo, c.hi, c.value, c.tag) for c in est.cells] == [
        (0, 2, 4, "known"),
        (2, 3, 3, "midpoint"),
        (3, 4, 2, "chain_interior"),
        (4, 5, 1, "midpoint"),
    ]
    box = feasible_box(model)
    report = perturbation_minimax_check(est, (Fraction(4), Fraction(2)), box, resolution=50)
    ok = cells_ok and report.passed and report.all_strict
    margin = min((p.worst - report.baseline for p in report.probes), default=None)
    _report(8, "chain estimate and perturbations", ok,
            f"cells match; {len(report.probes)} probes, smallest margin {margin} > 0",
            started, 60.0)


def test_criterion_9_absolute_error_midpoint(corpus):
    """The interval-constant absolute-error bound is minimized at the
    midpoint of the two meeting amplitudes, on every interval."""
    started = time.perf_counter()
    intervals = 0
    for spec in corpus[:25]:
        obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
        l = best_reference(spec.g)
        model = infer_model(obs, l)
        others = [i for i in range(spec.m + 1) if i != l]
        midpoints = {i: (amp(spec.g, i) + amp(spec.g, i + 1)) / 2 for i in others}
        base = absolute_error_bound(model, spec.g, midpoints)
        assert base == sum(abs(amp(spec.g, i) - amp(spec.g, i + 1)) for i in others) / 2
        for i in others:
            lo, hi = sorted((amp(spec.g, i), amp(spec.g, i + 1)))
            for k in range(21):
                candidate = dict(midpoints)
                candidate[i] = lo + Fraction(k, 20) * (hi - lo)
                assert absolute_error_bound(model, spec.g, candidate) >= base
            intervals += 1
    _report(9, "absolute-error midpoint optimality", True,
            f"{intervals} intervals, 21-point grids", started, 30.0)
