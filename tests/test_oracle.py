"""Brute-force energies, worst-case search, and perturbation probes."""

import random
from fractions import Fraction

import pytest

from pcsamp import (
    CheckResult,
    EmptyFeasibleSet,
    Estimate,
    FeasibleBox,
    ObservationSet,
    PiecewiseFunction,
    SignalSpec,
    Zone,
    closed_form_energy,
    energy_between,
    enumerate_atlas,
    estimate_full,
    estimate_partial,
    exhaustive_consistency_sweep,
    feasible_box,
    infer_model,
    minimax_report,
    perturbation_minimax_check,
    random_spec,
    truth_function,
    validate_spec,
    verify_scenario,
    worst_case_energy,
)
from pcsamp import oracle
from pcsamp.estimator import CHAIN_INTERIOR, MIDPOINT, amp


def _full_model(spec, l):
    obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
    return infer_model(obs, l)


def test_energy_between_identity(running_spec):
    fn = truth_function(running_spec, 0)
    assert energy_between(fn, fn) == 0


def test_energy_between_unit_gap():
    a = PiecewiseFunction(breakpoints=(0, 1), values=(Fraction(4),))
    b = PiecewiseFunction(breakpoints=(0, 1), values=(Fraction(3),))
    assert energy_between(a, b) == 1


def test_energy_between_running_breakdown(running_spec):
    # components: (4-3)^2*(7/4-1) + (2-3)^2*(2-7/4) + (2-1)^2*(17/4-4)
    #           + (0-1)^2*(5-17/4) = 3/4 + 1/4 + 1/4 + 3/4 = 2
    truth = truth_function(running_spec, 0)
    est = estimate_full(_full_model(running_spec, 0), running_spec.g)
    assert energy_between(truth, est.fn) == 2


def test_energy_between_symmetric_nonnegative():
    rng = random.Random(2)
    for _ in range(20):
        pts_a = sorted(rng.sample(range(-8, 9), rng.randint(2, 5)))
        pts_b = sorted(rng.sample(range(-8, 9), rng.randint(2, 5)))
        a = PiecewiseFunction(
            tuple(map(Fraction, pts_a)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(len(pts_a) - 1)),
        )
        b = PiecewiseFunction(
            tuple(map(Fraction, pts_b)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(len(pts_b) - 1)),
        )
        e = energy_between(a, b)
        assert e >= 0
        assert e == energy_between(b, a)
    assert energy_between(a, a) == 0


def test_worst_case_is_placement_independent(running_spec):
    model = _full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    wc = worst_case_energy(est, running_spec.g, feasible_box(model), 12)
    assert wc.value == 2
    for zone in wc.zones:
        assert zone.max_energy == zone.min_energy == 1
    # the witness is one feasible placement achieving the worst case
    assert wc.witness[0] == 0
    assert model.G[1][0] < wc.witness[1] < model.G[1][1]


def test_worst_case_agrees_with_direct_integration(running_spec):
    # rebuild the objective from scratch: place the discontinuities at the
    # witness, integrate, and compare
    model = _full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    wc = worst_case_energy(est, running_spec.g, feasible_box(model), 12)
    placed = PiecewiseFunction(
        breakpoints=(wc.witness[0], wc.witness[1], wc.witness[2]),
        values=running_spec.g,
    )
    assert energy_between(placed, est.fn) == wc.value


def test_perturbed_midpoint_strictly_worse(running_spec):
    # push the first midpoint cell from 3 to 7/2 and redo the search by hand
    model = _full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    box = feasible_box(model)
    bumped = est.fn.with_value(1, 2, Fraction(7, 2))
    expected = max(
        Fraction(1, 4) * k / 12 + Fraction(9, 4) * (1 - Fraction(k, 12)) for k in range(1, 12)
    ) + 1
    wc = worst_case_energy(bumped, running_spec.g, box, 12)
    assert wc.value == expected
    assert wc.value > 2


def test_chain_worst_case_matches_exhaustive_search():
    model = infer_model(ObservationSet.of([(3, 1)], [4, 2]), 0)
    est = estimate_partial(model, [4, 2])
    box = feasible_box(model)
    wc = worst_case_energy(est, (Fraction(4), Fraction(2)), box, 50)

    # independent oracle: brute force over the full joint grid
    best = Fraction(0)
    for j1 in range(1, 100):
        d1 = 2 + Fraction(j1, 50)
        for j2 in range(1, 100):
            d2 = 3 + Fraction(j2, 50)
            if not (1 <= d2 - d1 < 2):
                continue
            placed = PiecewiseFunction((Fraction(0), d1, d2), (Fraction(4), Fraction(2)))
            best = max(best, energy_between(placed, est.fn))
    assert wc.value == best == Fraction(148, 25)


def test_longer_chain_worst_case_matches_exhaustive_search():
    # three coupled discontinuities: members (1, 2, 3), two interior cells
    obs = ObservationSet.of([(3, 1, 1)], [4, 2, 1])
    model = infer_model(obs, 0)
    chain = model.chains.plus[0]
    assert chain.members == (1, 2, 3)
    assert chain.b == 3
    est = estimate_partial(model, [4, 2, 1])
    assert [(c.lo, c.hi, c.value, c.tag) for c in est.cells] == [
        (0, 2, 4, "known"),
        (2, 3, 3, "midpoint"),
        (3, 4, Fraction(5, 2), "chain_interior"),   # reachable {4, 2, 1}
        (4, 5, 1, "chain_interior"),                # reachable {2, 1, 0}
        (5, 6, Fraction(1, 2), "midpoint"),
    ]
    g = (Fraction(4), Fraction(2), Fraction(1))
    box = feasible_box(model)
    wc = worst_case_energy(est, g, box, resolution=6)

    best = Fraction(0)
    grid = [Fraction(k, 6) for k in range(1, 12)]
    for a in grid:
        d1 = 2 + a
        for b in grid:
            d2 = 3 + b
            if not (1 <= d2 - d1 < 2):
                continue
            for c in grid:
                d3 = 4 + c
                if not (1 <= d3 - d2 < 2):
                    continue
                placed = PiecewiseFunction((Fraction(0), d1, d2, d3), g)
                best = max(best, energy_between(placed, est.fn))
    assert wc.value == best

    report = perturbation_minimax_check(est, g, box, resolution=20, include_known=True)
    assert report.passed
    assert report.all_strict


def test_worst_case_monotone_in_resolution():
    chain_model = infer_model(ObservationSet.of([(3, 1)], [4, 2]), 0)
    chain_est = estimate_partial(chain_model, [4, 2])
    values = []
    for res in (5, 10, 20, 40):
        wc = worst_case_energy(chain_est, (Fraction(4), Fraction(2)), feasible_box(chain_model), res)
        values.append(wc.value)
    assert values == sorted(values)   # nested grids never lose the maximum


def test_perturbations_never_improve_full(running_spec):
    for l in range(running_spec.m + 1):
        model = _full_model(running_spec, l)
        est = estimate_full(model, running_spec.g)
        report = perturbation_minimax_check(
            est, running_spec.g, feasible_box(model), resolution=12, include_known=True
        )
        assert report.passed
        assert report.all_strict
        assert report.violations == ()


def test_perturbations_never_improve_chain():
    model = infer_model(ObservationSet.of([(3, 1)], [4, 2]), 0)
    est = estimate_partial(model, [4, 2])
    report = perturbation_minimax_check(
        est, (Fraction(4), Fraction(2)), feasible_box(model), resolution=50, include_known=True
    )
    assert report.passed
    assert report.all_strict


def test_oracle_catches_a_broken_estimate(running_spec):
    # replace a midpoint cell by the left amplitude: nudging it back toward
    # the midpoint must lower the worst case, and the probe must say so
    model = _full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    box = feasible_box(model)
    broken = est.fn.with_value(1, 2, Fraction(4))   # was 3 = (4 + 2) / 2
    jump = Fraction(4 - 2)
    good = worst_case_energy(broken.with_value(1, 2, 4 - jump / 2), running_spec.g, box, 12)
    bad = worst_case_energy(broken, running_spec.g, box, 12)
    assert good.value < bad.value
    report = perturbation_minimax_check(
        Estimate(l=est.l, cells=est.cells, fn=broken, span=est.span),
        running_spec.g, box, deltas=[-jump / 2, jump / 2], resolution=12,
    )
    assert not report.passed
    assert any(p.worst < report.baseline for p in report.violations)


def test_zero_delta_is_skipped(running_spec):
    model = _full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    report = perturbation_minimax_check(
        est, running_spec.g, feasible_box(model), deltas=[Fraction(0)], resolution=12
    )
    assert report.probes == ()


def test_minimax_report(running_spec):
    model = _full_model(running_spec, 0)
    report = minimax_report(model, running_spec.g, resolution=12)
    assert report.closed_form == report.oracle_worst == 2
    assert report.agrees


def test_empty_feasible_set():
    # hand-built geometry: coupled members too far apart for a [1, 2) gap
    box = FeasibleBox(
        l=0,
        G=((0, 0), (1, 2), (5, 6)),
        zones=(Zone(members=(1, 2), lo=1, hi=6, coupled=True),),
    )
    fn = PiecewiseFunction((Fraction(0), Fraction(6)), (Fraction(1),))
    with pytest.raises(EmptyFeasibleSet):
        worst_case_energy(fn, (Fraction(2), Fraction(1)), box, 4)


def test_sweep_is_deterministic_and_green():
    first = exhaustive_consistency_sweep(8, seed=7, delta_denominator=30)
    second = exhaustive_consistency_sweep(8, seed=7, delta_denominator=30)
    assert first == second
    assert first.failed == 0
    assert first.passed == 8
    assert first.first_failure is None


def test_random_spec_reproducible():
    a = random_spec(random.Random(99))
    b = random_spec(random.Random(99))
    assert a == b


def test_verify_scenario_green(running_spec):
    results = verify_scenario(running_spec, resolution=12, delta_denominator=40)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = {r.name for r in results}
    assert "minimax-worst-case-equality" in names
    assert "width-two-energy-equality" in names


def _brute_force_chain(fn, g, box, resolution):
    """Energies of every feasible grid placement of a box with one coupled zone.

    Returns {placement: energy}; every discontinuity outside the zone is the
    reference at 0.
    """
    (zone,) = box.zones
    grids = [
        [box.G[i][0] + Fraction(k, resolution) for k in range(1, (box.G[i][1] - box.G[i][0]) * resolution)]
        for i in zone.members
    ]
    placements = [()]
    for grid in grids:
        placements = [
            path + (q,) for path in placements for q in grid if not path or 1 <= q - path[-1] < 2
        ]
    energies = {}
    for path in placements:
        positions = {box.l: Fraction(0), **dict(zip(zone.members, path))}
        placed = PiecewiseFunction(tuple(positions[i] for i in range(box.m + 1)), g)
        energies[path] = energy_between(placed, fn)
    return energies


_CHAIN_CASES = (
    ([(3, 1)], (4, 2), 0),          # right chain, members (1, 2)
    ([(1, 3)], (2, 5), 2),          # left chain, members (0, 1)
    ([(3, 1, 1)], (4, 2, 1), 0),    # right chain, members (1, 2, 3)
    ([(1, 1, 3)], (1, 3, -2), 3),   # left chain, members (0, 1, 2)
)


def _check_against_brute_force(fn, g, box, resolution):
    energies = _brute_force_chain(fn, g, box, resolution)
    wc = worst_case_energy(fn, g, box, resolution)
    (zone,) = wc.zones
    assert wc.const + zone.max_energy == wc.value == max(energies.values())
    assert wc.const + zone.min_energy == min(energies.values())
    # the witness is the best placement whose last member sits earliest,
    # then the one before it, and so on
    best = [path for path, energy in energies.items() if energy == wc.value]
    assert zone.argmax == min(best, key=lambda path: path[::-1])
    for a, b in zip(zone.argmax, zone.argmax[1:]):
        assert 1 <= b - a < 2


@pytest.mark.parametrize("observed, g, l", _CHAIN_CASES)
def test_chain_sweep_matches_brute_force(observed, g, l):
    g = tuple(map(Fraction, g))
    model = infer_model(ObservationSet.of(observed, g), l)
    box = feasible_box(model)
    assert len(box.zones) == 1 and box.zones[0].coupled
    est = estimate_partial(model, g)
    for resolution in range(3, 9):
        _check_against_brute_force(est.fn, g, box, resolution)


@pytest.mark.parametrize("g", [(1, 3), (1, -1)])
def test_chain_sweep_window_ends_and_ties(g):
    # fn = 0: with g = (1, 3) the energy is p - 1 + 9 (q - p) + const, best
    # just inside the open end of the spacing window; with g = (1, -1) it is
    # q - 1 + const, so every p in the window ties and the earliest wins
    box = FeasibleBox(
        l=0, G=((0, 0), (1, 3), (2, 4)), zones=(Zone(members=(1, 2), lo=1, hi=4, coupled=True),)
    )
    fn = PiecewiseFunction((Fraction(0), Fraction(4)), (Fraction(0),))
    for resolution in range(3, 9):
        _check_against_brute_force(fn, tuple(map(Fraction, g)), box, resolution)


def test_chain_sweep_skips_unreachable_points():
    # member 2's points above 4 cannot follow member 1 within a gap below 2,
    # but some of them could precede member 3: they must not be used
    box = FeasibleBox(
        l=0,
        G=((0, 0), (1, 2), (2, 5), (5, 7)),
        zones=(Zone(members=(1, 2, 3), lo=1, hi=7, coupled=True),),
    )
    fn = PiecewiseFunction((Fraction(0), Fraction(7)), (Fraction(1),))
    for resolution in range(4, 9):   # at 3, member 3 is out of reach
        _check_against_brute_force(fn, (Fraction(2), Fraction(1), Fraction(3)), box, resolution)


def test_chain_sweep_off_lattice_breakpoint():
    # a breakpoint at 7/3 inside the zone puts the lattice at N = 12 or 15
    g = (Fraction(4), Fraction(2))
    model = infer_model(ObservationSet.of([(3, 1)], g), 0)
    box = feasible_box(model)
    assert box.zones[0].lo < Fraction(7, 3) < box.zones[0].hi
    fn = estimate_partial(model, g).fn.with_value(Fraction(7, 3), Fraction(13, 4), Fraction(5, 3))
    assert Fraction(7, 3) in fn.breakpoints
    for resolution in (4, 5):
        _check_against_brute_force(fn, g, box, resolution)


def test_empty_feasible_set_on_the_second_step():
    # members 1 -> 2 can keep a [1, 2) gap, members 2 -> 3 cannot
    fn = PiecewiseFunction((Fraction(0), Fraction(7)), (Fraction(1),))
    g = (Fraction(2), Fraction(1), Fraction(3))
    first_step = FeasibleBox(
        l=0, G=((0, 0), (1, 2), (2, 3)), zones=(Zone(members=(1, 2), lo=1, hi=3, coupled=True),)
    )
    assert worst_case_energy(fn, g[:2], first_step, 4).zones[0].argmax
    box = FeasibleBox(
        l=0,
        G=((0, 0), (1, 2), (2, 3), (6, 7)),
        zones=(Zone(members=(1, 2, 3), lo=1, hi=7, coupled=True),),
    )
    with pytest.raises(EmptyFeasibleSet):
        worst_case_energy(fn, g, box, 4)


def _reference_auto_deltas(est, g, n):
    """The probe magnitudes as first defined: a linear scan over the cells."""
    for cell in est.cells:
        if cell.lo <= n - 1 and n <= cell.hi:
            if cell.tag == MIDPOINT:
                gap = abs(amp(g, cell.indices[0]) - amp(g, cell.indices[1]))
            elif cell.tag == CHAIN_INTERIOR:
                triple = [amp(g, j) for j in cell.indices]
                gap = max(triple) - min(triple)
            else:
                i = cell.indices[0]
                gap = max(abs(amp(g, i) - amp(g, i - 1)), abs(amp(g, i) - amp(g, i + 1)))
            return (gap / 10, -gap / 10, gap / 2, -gap / 2)
    raise ValueError(f"unit cell ({n - 1}, {n}) lies outside the estimate span")


def _reference_probes(est, g, box, resolution, include_known):
    """The probes as first defined: every unit cell of the estimate span, its
    zone or forced span found by a scan, and the whole estimate rebuilt."""
    base = worst_case_energy(est, g, box, resolution)
    gammas = est.gammas
    spans = oracle._known_spans(box)
    zone_totals = sum((o.max_energy for o in base.zones), Fraction(0))
    probes = []
    for n in sorted(gammas):
        zone_idx = next((j for j, z in enumerate(box.zones) if z.lo <= n - 1 and n <= z.hi), None)
        if zone_idx is None and not include_known:
            continue
        for delta in _reference_auto_deltas(est, g, n):
            fn2 = est.fn.with_value(n - 1, n, gammas[n] + delta)
            if zone_idx is not None:
                redo = oracle._zone_extremes(fn2, g, box, box.zones[zone_idx], resolution)
                value = base.const + zone_totals - base.zones[zone_idx].max_energy + redo.max_energy
            else:
                region = next(r for lo, hi, r in spans if lo <= n - 1 and n <= hi)
                old = oracle._span_energy(est.fn, amp(g, region), n - 1, n)
                new = oracle._span_energy(fn2, amp(g, region), n - 1, n)
                value = base.const - old + new + zone_totals
            probes.append(oracle.PerturbationProbe(n, delta, value, value >= base.value, value > base.value))
    return oracle.PerturbationReport(base.value, tuple(probes))


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:   # both sides must fail the same way
        return f"{type(exc).__name__}: {exc}"


def test_probe_walk_matches_the_unit_cell_scan():
    rng = random.Random(23)
    cases = []
    while len(cases) < 120:
        spec = random_spec(rng, m_range=(1, 5), n_range=(2, 3))
        l = rng.randint(0, spec.m)
        patterns = enumerate_atlas(spec).patterns
        k = rng.randrange(len(patterns))
        observed = (patterns, [patterns[k]], list(patterns[k:k + 2]))[len(cases) % 3]
        try:
            model = infer_model(ObservationSet.of(observed, spec.g), l)
            est = estimate_partial(model, spec.g)
        except AssertionError:   # the known inverted forced-span defect
            continue
        # and the estimate off by one on a random unit cell or its left half,
        # so that a forced span can hold a value other than the signal's
        n = rng.randint(est.span[0] + 1, est.span[1])
        bent = est.fn.with_value(n - 1, n - Fraction(rng.randint(0, 1), 2), est.fn.evaluate(n - 1) + 1)
        cases += [(e, spec.g, feasible_box(model)) for e in (est, Estimate(est.l, est.cells, bent, est.span))]
    cells = [cell for est, _, _ in cases for cell in est.cells]
    assert any(c.tag == MIDPOINT and c.hi - c.lo == 2 for c in cells)
    assert any(c.lo == c.hi for c in cells)
    assert any(c.tag == CHAIN_INTERIOR for c in cells)
    for est, g, box in cases:
        for include_known in (False, True):
            assert _outcome(
                lambda: perturbation_minimax_check(est, g, box, resolution=4, include_known=include_known)
            ) == _outcome(lambda: _reference_probes(est, g, box, 4, include_known))


def test_probe_of_a_box_cell_no_estimate_cell_covers(running_spec):
    model = _full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    box = feasible_box(model)
    zone = box.zones[0]
    gap = Estimate(
        l=est.l, cells=tuple(c for c in est.cells if c.hi <= zone.lo or c.lo >= zone.hi),
        fn=est.fn, span=est.span,
    )
    with pytest.raises(ValueError, match=rf"unit cell \({zone.hi - 1}, {zone.hi}\) lies outside"):
        perturbation_minimax_check(gap, running_spec.g, box, resolution=4)


_PASSED = {
    "pattern-atlas-and-count-equivalence": "3 cells, 8 exact offsets, every region run",
    "full-set-round-trip-and-grid-agreement": "width-one intervals contain the truth; grid points reproduced",
    "best-reference-law": "argmin energy = largest jump",
    "minimax-worst-case-equality": "all 3 references, placement independent, perturbations strict",
    "width-two-energy-equality": "3 adjacent-pair observation sets",
}


def _wrong_closed_form(real):
    return lambda model, g: Fraction(-model.l)


def _miscounting(real):
    return lambda *args: real(*args) + 1


def _doubled_truth(real):
    return lambda spec, l: PiecewiseFunction(real(spec, l).breakpoints, tuple(2 * v for v in spec.g))


def _first_pattern_lost(real):
    return lambda obs, l: real(ObservationSet.of(obs.patterns[1:], obs.amplitudes), l)


def _one_pattern_kept(real):
    return lambda obs, l: real(ObservationSet.of(obs.patterns[:1], obs.amplitudes), l)


@pytest.mark.parametrize(
    "name, patch, changed, sweep",
    [
        (
            "closed_form_energy", _wrong_closed_form,
            {
                "best-reference-law": (False, "argmin energy 2 != largest-jump reference 0 "
                                       "({0: Fraction(0, 1), 1: Fraction(-1, 1), 2: Fraction(-2, 1)})"),
                "minimax-worst-case-equality": (False, "l=0: oracle worst 2 != closed form 0"),
                "width-two-energy-equality": (False, "pair at cell 0, l=0: oracle 3 != closed 0"),
            },
            (1, 2, 1, "argmin energy 4 != largest-jump reference 2 ({0: Fraction(0, 1), "
             "1: Fraction(-1, 1), 2: Fraction(-2, 1), 3: Fraction(-3, 1), 4: Fraction(-4, 1)})"),
        ),
        (
            "cumulative_count", _miscounting,
            {
                "pattern-atlas-and-count-equivalence":
                    (False, "offset 0: run (i=1, K=0) counts direct=2 formula=3"),
            },
            (0, 3, 0, "offset 0: run (i=1, K=0) counts direct=2 formula=3"),
        ),
        (
            "truth_function", _doubled_truth,
            {"full-set-round-trip-and-grid-agreement": (False, "l=0: estimate(0) = 4 != truth 8")},
            (0, 3, 0, "l=0: estimate(0) = 1 != truth 2"),
        ),
        (
            "infer_model", _first_pattern_lost,
            {
                "full-set-round-trip-and-grid-agreement":
                    (False, "l=0: full atlas left width-two indices [1]"),
                "minimax-worst-case-equality": (False, "l=0: no full estimate, width-two indices [1]"),
                "width-two-energy-equality": (True, "4 adjacent-pair observation sets"),
            },
            (0, 3, 0, "l=0: full atlas left width-two indices [3]"),
        ),
        (
            "infer_model", _one_pattern_kept,   # l = 2 sees a chain, so it has no closed form
            {
                "full-set-round-trip-and-grid-agreement":
                    (False, "l=0: full atlas left width-two indices [1, 2]"),
                "best-reference-law": (False, "no closed-form energy for references [2]"),
                "minimax-worst-case-equality": (False, "l=0: no full estimate, width-two indices [1, 2]"),
            },
            (0, 3, 0, "l=0: full atlas left width-two indices [1, 2, 3]"),
        ),
    ],
)
def test_failing_checks_report_their_messages(running_spec, monkeypatch, name, patch, changed, sweep):
    monkeypatch.setattr(oracle, name, patch(getattr(oracle, name)))
    expected = [CheckResult(check, *changed.get(check, (True, detail))) for check, detail in _PASSED.items()]
    assert verify_scenario(running_spec, resolution=4, delta_denominator=8) == expected

    passed, failed, trial, message = sweep
    rng = random.Random(1)
    spec = [random_spec(rng) for _ in range(3)][trial]
    summary = exhaustive_consistency_sweep(3, seed=1, delta_denominator=8)
    assert (summary.passed, summary.failed) == (passed, failed)
    assert summary.first_failure == f"trial {trial}: {message} (spec g={spec.g} n={spec.n} f={spec.f})"


def test_verify_cost_does_not_grow_with_region_length():
    spec = validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2, 10**9], f=["1/4", "1/2"]))
    results = verify_scenario(spec, resolution=4, delta_denominator=8)
    assert len(results) == 5 and all(r.passed for r in results), results


def _first_grid_mismatch(spec, full, truth_of):
    """The round trip's grid comparison at every integer grid point."""
    for l, (model, est) in enumerate(full):
        truth = truth_of(spec, l)
        for t in range(model.G[0][0] - 1, model.G[spec.m][1] + 2):
            if est.value_at(t) != truth.evaluate(t):
                return f"l={l}: estimate({t}) = {est.value_at(t)} != truth {truth.evaluate(t)}"
    return None


def test_round_trip_probes_find_the_first_grid_mismatch(monkeypatch):
    rng = random.Random(31)
    outcomes = {"match": 0, "mismatch": 0}
    for _ in range(60):
        spec = random_spec(rng, m_range=(1, 5), n_range=(2, 6))
        full = oracle._full_set(spec, enumerate_atlas(spec))
        for _ in range(4):
            k, shift = rng.randrange(spec.m), Fraction(rng.randint(-25, 25), rng.choice((1, 3, 10)))
            if rng.random() < 0.4:   # one amplitude changed
                def wrong(s, l, k=k, shift=shift):
                    fn = truth_function(s, l)
                    return PiecewiseFunction(fn.breakpoints, tuple(v + shift * (j == k) for j, v in enumerate(fn.values)))
            else:   # every discontinuity moved, often by less than its distance to the grid
                scale = rng.choice((4, 10**4))
                def wrong(s, l, shift=shift, scale=scale):
                    fn = truth_function(s, l)
                    return PiecewiseFunction(tuple(b + shift / scale for b in fn.breakpoints), fn.values)
            expected = _first_grid_mismatch(spec, full, wrong)
            monkeypatch.setattr(oracle, "truth_function", wrong)
            assert oracle.check_round_trip(spec, full) == expected
            monkeypatch.undo()
            outcomes["match" if expected is None else "mismatch"] += 1
    assert min(outcomes.values()) > 40, outcomes
