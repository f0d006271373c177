"""Minimax estimates, closed-form energies, and the reference law."""

import random
from fractions import Fraction

import pytest

from pcsamp import (
    ObservationSet,
    PartialObservations,
    SignalSpec,
    absolute_error_bound,
    best_reference,
    closed_form_energy,
    energy_between,
    enumerate_atlas,
    estimate_full,
    estimate_partial,
    infer_model,
    random_spec,
    translate,
    truth_function,
    validate_spec,
)


def _full_model(spec, l):
    obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
    return infer_model(obs, l)


def test_full_estimate_cells_running(running_spec):
    est = estimate_full(_full_model(running_spec, 0), running_spec.g)
    assert [(c.lo, c.hi, c.value, c.tag) for c in est.cells] == [
        (0, 1, 4, "known"),
        (1, 2, 3, "midpoint"),
        (2, 4, 2, "known"),
        (4, 5, 1, "midpoint"),
    ]
    assert est.span == (0, 5)


def test_full_estimate_requires_width_one():
    obs = ObservationSet.of([(3, 1)], [4, 2])
    model = infer_model(obs, 0)
    with pytest.raises(PartialObservations):
        estimate_full(model, [4, 2])


def test_closed_form_running(running_spec):
    assert closed_form_energy(_full_model(running_spec, 0), running_spec.g) == 2
    # reference 1 leaves jumps of 4 and 2: (4/2)^2 + (2/2)^2 = 5
    assert closed_form_energy(_full_model(running_spec, 1), running_spec.g) == 5


def test_estimate_matches_truth_on_grid(running_spec):
    for l in range(running_spec.m + 1):
        model = _full_model(running_spec, l)
        est = estimate_full(model, running_spec.g)
        truth = truth_function(running_spec, l)
        for n in range(model.G[0][0] - 2, model.G[running_spec.m][1] + 3):
            assert est.value_at(n) == truth.evaluate(n)


def test_value_at_honors_closed_known_spans(running_spec):
    est = estimate_full(_full_model(running_spec, 0), running_spec.g)
    assert est.value_at(1) == 4          # known [0,1] owns its right endpoint
    assert est.value_at(2) == 2          # known [2,4] owns its left endpoint
    assert est.value_at(Fraction(3, 2)) == 3
    assert est.value_at(5) == 0
    assert est.value_at(0) == 4


def test_partial_estimate_chain_cells():
    model = infer_model(ObservationSet.of([(3, 1)], [4, 2]), 0)
    est = estimate_partial(model, [4, 2])
    assert [(c.lo, c.hi, c.value, c.tag) for c in est.cells] == [
        (0, 2, 4, "known"),
        (2, 3, 3, "midpoint"),
        (3, 4, 2, "chain_interior"),
        (4, 5, 1, "midpoint"),
    ]
    interior = est.cells[2]
    assert interior.indices == (1, 2, 3)
    # Chebyshev center of the three reachable amplitudes {4, 2, 0}
    assert interior.value == (min(4, 2, 0) + max(4, 2, 0)) / 2


def test_partial_estimate_mirror_chain_cells():
    model = infer_model(ObservationSet.of([(1, 3)], [2, 4]), 2)
    est = estimate_partial(model, [2, 4])
    assert [(c.lo, c.hi, c.value, c.tag) for c in est.cells] == [
        (-5, -4, 1, "midpoint"),
        (-4, -3, 2, "chain_interior"),
        (-3, -2, 3, "midpoint"),
        (-2, 0, 4, "known"),
    ]


def test_partial_degenerates_to_full():
    rng = random.Random(13)
    for _ in range(10):
        spec = random_spec(rng, m_range=(1, 6))
        for l in range(spec.m + 1):
            model = _full_model(spec, l)
            assert estimate_partial(model, spec.g) == estimate_full(model, spec.g)


def test_example6_width_two_midpoints(example6_spec):
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    model = infer_model(obs, 0)
    est = estimate_partial(model, example6_spec.g)
    widths = {(c.hi - c.lo) for c in est.cells if c.tag == "midpoint"}
    assert widths == {1, 2}
    two_wide = [c for c in est.cells if c.tag == "midpoint" and c.hi - c.lo == 2]
    assert [(c.lo, c.hi, c.value) for c in two_wide] == [
        (2, 4, 3),              # (4 + 2) / 2 over discontinuity 1
        (5, 7, Fraction(3, 2)),  # (2 + 1) / 2 over discontinuity 2
    ]


def test_closed_form_width_two(example6_spec):
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    model = infer_model(obs, 0)
    # one width-one interval (jump 1) plus two width-two intervals (jumps 2 and 1)
    assert closed_form_energy(model, example6_spec.g) == Fraction(1, 4) + 2 * (1 + Fraction(1, 4))


def test_closed_form_unavailable_with_chains():
    model = infer_model(ObservationSet.of([(3, 1)], [4, 2]), 0)
    assert closed_form_energy(model, [4, 2]) is None


def test_best_reference_examples():
    assert best_reference([4, 2]) == 0      # jumps 4, 2, 2
    assert best_reference([1, 5]) == 2      # jumps 1, 4, 5
    assert best_reference([5]) == 0         # symmetric jumps tie to the smallest index


def test_best_reference_matches_energy_argmin():
    rng = random.Random(19)
    for _ in range(25):
        spec = random_spec(rng)
        obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
        energies = {
            l: closed_form_energy(infer_model(obs, l), spec.g) for l in range(spec.m + 1)
        }
        arg = min(energies, key=lambda l: (energies[l], l))
        assert arg == best_reference(spec.g)


def test_absolute_error_bound(running_spec):
    model = _full_model(running_spec, 0)
    g = running_spec.g
    midpoints = {1: Fraction(3), 2: Fraction(1)}
    # midpoints give half the jump per interval: 1 + 1
    assert absolute_error_bound(model, g, midpoints) == 2
    one_sided = {1: Fraction(4), 2: Fraction(2)}
    assert absolute_error_bound(model, g, one_sided) == 2 + 2


def test_absolute_error_bound_minimized_at_midpoint():
    rng = random.Random(31)
    for _ in range(8):
        spec = random_spec(rng, m_range=(1, 5))
        obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
        l = rng.randint(0, spec.m)
        model = infer_model(obs, l)
        others = [i for i in range(spec.m + 1) if i != l]
        g = spec.g

        def pad(i):
            return g[i - 1] if 1 <= i <= spec.m else Fraction(0)

        midpoints = {i: (pad(i) + pad(i + 1)) / 2 for i in others}
        best = absolute_error_bound(model, g, midpoints)
        for i in others:
            lo, hi = sorted((pad(i), pad(i + 1)))
            for k in range(21):
                candidate = dict(midpoints)
                candidate[i] = lo + Fraction(k, 20) * (hi - lo)
                assert absolute_error_bound(model, g, candidate) >= best


def test_estimate_mirror_symmetry():
    rng = random.Random(37)
    for _ in range(8):
        spec = random_spec(rng, m_range=(2, 5))
        mirror = validate_spec(
            SignalSpec.from_columns(
                g=tuple(reversed(spec.g)), n=tuple(reversed(spec.n)), f=tuple(reversed(spec.f))
            )
        )
        atlas = enumerate_atlas(spec)
        subset = list(atlas.patterns)[:: 2]
        obs = ObservationSet.of(subset, spec.g)
        mirrored_obs = ObservationSet.of([tuple(reversed(p.eta)) for p in subset], mirror.g)
        for l in range(spec.m + 1):
            a = estimate_partial(infer_model(obs, l), spec.g)
            b = estimate_partial(infer_model(mirrored_obs, spec.m - l), mirror.g)
            reflected = [
                (-c.hi, -c.lo, c.value, c.tag) for c in reversed(b.cells)
            ]
            assert [(c.lo, c.hi, c.value, c.tag) for c in a.cells] == reflected
            ea = closed_form_energy(infer_model(obs, l), spec.g)
            eb = closed_form_energy(infer_model(mirrored_obs, spec.m - l), mirror.g)
            assert ea == eb


def test_grid_cell_constants(running_spec):
    est = estimate_full(_full_model(running_spec, 0), running_spec.g)
    assert est.gammas == {1: 4, 2: 3, 3: 2, 4: 2, 5: 1}


def _value_at_reference(est, t):
    # the definition by two scans: known cells own their closed ends, then
    # any open cell, then the half-open convention at open-cell bounds
    for cell in est.cells:
        if cell.tag == "known" and (
            (cell.lo < t < cell.hi)
            or (t == cell.lo and cell.closed_lo)
            or (t == cell.hi and cell.closed_hi)
        ):
            return cell.value
    lo, hi = est.span
    if t <= lo or t >= hi:
        return Fraction(0)
    for cell in est.cells:
        if cell.lo < t < cell.hi:
            return cell.value
    return est.fn.evaluate(t)


def test_value_at_matches_reference_definition():
    rng = random.Random(17)
    estimates = []
    while len(estimates) < 150:
        spec = random_spec(rng, m_range=(1, 6), n_range=(2, 3))
        patterns = enumerate_atlas(spec).patterns
        k = rng.randrange(len(patterns))
        observed = [patterns[k]] if rng.random() < 0.5 else list(patterns[k:k + 2])
        try:
            model = infer_model(ObservationSet.of(observed, spec.g), rng.randint(0, spec.m))
            estimates.append(estimate_partial(model, spec.g))
        except AssertionError:   # the known inverted forced-span defect
            continue
    degenerate = 0
    for est in estimates:
        degenerate += any(c.lo == c.hi for c in est.cells)
        lo, hi = est.span
        points = [Fraction(j, 2) for j in range(2 * lo - 3, 2 * hi + 4)]
        points += [Fraction(rng.randint(6 * lo - 6, 6 * hi + 6), 6) for _ in range(10)]
        for t in points:
            assert est.value_at(t) == _value_at_reference(est, t), (est.cells, t)
    assert degenerate > 0
