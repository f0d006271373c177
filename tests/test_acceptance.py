"""Acceptance suite: one test per criterion, one pass/fail line printed each.

All checks are exact (rational comparisons, zero tolerance); each criterion
also carries a wall-clock budget.  The random-signal corpus is drawn once
per session from a fixed seed so every criterion sees the same signals.

Criteria 2, 3, 4, 6 and 7 run the checks of ``pcsamp verify`` itself
(:mod:`pcsamp.oracle`'s ``check_pattern_counts``, ``check_round_trip``,
``_check_minimax``, ``check_reference_law`` and ``_check_width2_energy``)
on their own corpora, so each of these claims is stated once, in the
oracle.  Criteria 1, 5, 8 and 9 state theirs here.

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
    enumerate_atlas,
    estimate_partial,
    feasible_box,
    infer_model,
    perturbation_minimax_check,
    random_spec,
    validate_spec,
)
from pcsamp import oracle

CORPUS_SEED = 2718
CORPUS_SIZE = 100
OFFSETS = 1000   # exact offsets j/1000 per signal in criterion 2


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_spec(rng, m_range=(1, 8)) for _ in range(CORPUS_SIZE)]


def _full_sets(corpus):
    """Each signal with its full atlas's model and estimate at every reference."""
    return [(spec, oracle._full_set(spec, enumerate_atlas(spec))) for spec in corpus]


def _report(number: int, name: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail}, {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def _checked(number: int, name: str, failures, detail: str, started: float, budget: float):
    """Report a criterion that runs one of verify's checks on each signal:
    it passes when no signal fails, and a failure's detail leads with the
    first one."""
    first = next((f for f in failures if f is not None), None)
    _report(number, name, first is None, detail if first is None else f"first failure: {first}; {detail}",
            started, budget)


def test_criterion_1_pattern_cardinality(corpus):
    """Every signal admits exactly m+1 distinct count patterns."""
    started = time.perf_counter()
    for spec in corpus:
        atlas = enumerate_atlas(spec)
        assert len(atlas.cells) == spec.m + 1
        assert len(set(atlas.patterns)) == spec.m + 1
    _report(1, "pattern cardinality", True, f"{len(corpus)} signals, m+1 cells each", started, 5.0)


def test_criterion_2_count_equivalence(corpus):
    """Closed-form cumulative counts equal direct counting everywhere, every
    count lies in {n-1, n}, and the atlas cells tile [0, 1) with their
    patterns: ``check_pattern_counts`` at 1000 exact offsets per signal."""
    started = time.perf_counter()
    failures = [oracle.check_pattern_counts(spec, enumerate_atlas(spec), OFFSETS) for spec in corpus]
    mismatches = sum(f is not None for f in failures)   # signals, each reported at its first mismatch
    _checked(2, "count equivalence", failures,
             f"{len(corpus) * OFFSETS} exact offsets, all region runs, {mismatches} mismatches",
             started, 30.0)


def test_criterion_3_round_trip(corpus):
    """Full pattern sets pin every discontinuity to width one, truth strictly
    inside, and the estimate reproduces the truth at every grid point:
    ``check_round_trip`` at every reference."""
    started = time.perf_counter()
    failures = [oracle.check_round_trip(spec, full) for spec, full in _full_sets(corpus)]
    _checked(3, "round trip on full sets", failures,
             f"{len(corpus)} signals, every reference, strict containment and grid agreement",
             started, 10.0)


def test_criterion_4_minimax_equality(corpus):
    """The oracle worst case of the full-set estimate equals the closed form,
    every zone's energy is the same at each candidate placement, and every
    probed cell perturbation strictly increases the worst case:
    ``_check_minimax`` at every reference."""
    started = time.perf_counter()
    failures = [oracle._check_minimax(spec, full) for spec, full in _full_sets(corpus)]
    references = sum(spec.m + 1 for spec in corpus)
    _checked(4, "minimax equality and perturbations", failures,
             f"{references} reference choices, placement independent, all strict",
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
    """The energy-minimizing reference is the largest amplitude jump:
    ``check_reference_law`` on the full sets."""
    started = time.perf_counter()
    failures = [oracle.check_reference_law(spec, full) for spec, full in _full_sets(corpus)]
    _checked(6, "best-reference law", failures, f"{len(corpus)} signals, argmin = largest jump",
             started, 10.0)


def test_criterion_7_width_two_energy():
    """With width-two intervals and no chains, the oracle worst case equals
    the closed form weighting those intervals twice: ``_check_width2_energy``
    on every adjacent pair of atlas patterns, at l = 0 and l = m."""
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    # counts of at least 3 keep every region above one sample, so no chains
    specs = [random_spec(rng, m_range=(2, 6), n_range=(3, 5)) for _ in range(15)]
    specs.append(
        validate_spec(SignalSpec.from_columns(g=[4, 2, 1], n=[3, 3, 2], f=["1/4", "1/3", "1/5"]))
    )
    rows = [oracle._check_width2_energy(spec, enumerate_atlas(spec)) for spec in specs]
    nonempty = sum(checked for _, checked in rows)
    _checked(7, "width-two energy equality", [failure for failure, _ in rows],
             f"{nonempty} constructed partial observation sets", started, 30.0)
    assert nonempty > 0


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
