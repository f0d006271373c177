"""Brute-force energies, worst-case search, and perturbation probes."""

import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import amp, full_model, span_energy_reference, with_value

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
    perturbation_minimax_check,
    random_spec,
    truth_function,
    validate_spec,
    verify_scenario,
    worst_case_energy,
)
from pcsamp import estimator, oracle
from pcsamp.cli import load_scenario
from pcsamp.estimator import CHAIN_INTERIOR, MIDPOINT
from pcsamp.sampler import AtlasCell, PatternAtlas, SamplingPattern


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
    est = estimate_full(full_model(running_spec, 0), running_spec.g)
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
    model = full_model(running_spec, 0)
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
    model = full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    wc = worst_case_energy(est, running_spec.g, feasible_box(model), 12)
    placed = PiecewiseFunction(
        breakpoints=(wc.witness[0], wc.witness[1], wc.witness[2]),
        values=running_spec.g,
    )
    assert energy_between(placed, est.fn) == wc.value


def test_perturbed_midpoint_strictly_worse(running_spec):
    # push the first midpoint cell from 3 to 7/2 and redo the search by hand
    model = full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    box = feasible_box(model)
    bumped = with_value(est.fn, 1, 2, Fraction(7, 2))
    expected = max(
        Fraction(1, 4) * k / 12 + Fraction(9, 4) * (1 - Fraction(k, 12)) for k in range(1, 12)
    ) + 1
    wc = worst_case_energy(bumped, running_spec.g, box, 12)
    assert wc.value == expected
    assert wc.value > 2


def test_longer_chain_cells_and_probes():
    # three coupled discontinuities: members (1, 2, 3), two interior cells;
    # test_chain_sweep_matches_brute_force checks this chain's worst case
    obs = ObservationSet.of([(3, 1, 1)], [4, 2, 1])
    model = infer_model(obs, 0)
    chain = model.chains.plus[0]
    assert chain.members == (1, 2, 3)
    est = estimate_partial(model, [4, 2, 1])
    assert [(c.lo, c.hi, c.value, c.tag) for c in est.cells] == [
        (0, 2, 4, "known"),
        (2, 3, 3, "midpoint"),
        (3, 4, Fraction(5, 2), "chain_interior"),   # reachable {4, 2, 1}
        (4, 5, 1, "chain_interior"),                # reachable {2, 1, 0}
        (5, 6, Fraction(1, 2), "midpoint"),
    ]
    g = (Fraction(4), Fraction(2), Fraction(1))
    report = perturbation_minimax_check(est, g, feasible_box(model), resolution=20)
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


@pytest.mark.parametrize(
    "observed, g, baseline, closed",
    [
        pytest.param([(3, 1)], (4, 2), Fraction(148, 25), None, id="chain"),
        # from g = (-1, 1), n = (2, 2), f = (20/97, 84/97): the estimate is 0 on
        # (0, 2) and 1/2 on (2, 3), and the -1/2 probe of (2, 3) zeroes it
        pytest.param([(1, 2), (1, 1)], (-1, 1), Fraction(9, 4), Fraction(9, 4), id="zeroing-probe"),
    ],
)
def test_perturbations_never_improve_chain(observed, g, baseline, closed):
    g = tuple(map(Fraction, g))
    model = infer_model(ObservationSet.of(observed, g), 0)
    est = estimate_partial(model, g)
    report = perturbation_minimax_check(est, g, feasible_box(model), resolution=50)
    assert report.passed
    assert report.all_strict
    assert report.baseline == baseline
    assert closed_form_energy(model, g) == closed


def test_three_member_chain_is_not_minimax():
    # the known defect: the per-cell (min + max) / 2 rule is not minimax once
    # a chain has 3 members, and moving one cell lowers the worst case from 4
    # to 91/25.  This pins ROADMAP item 3, as the inverted-span tests pin
    # item 1, and must be updated when item 3 lands.
    g = tuple(map(Fraction, (-3, -1, -2)))
    est = estimate_partial(infer_model(ObservationSet.of([(3, 1, 1)], g), 0), g)
    report = perturbation_minimax_check(est, g, est.box, resolution=12)
    assert report.baseline == 4
    assert [(p.cell, p.delta, p.worst) for p in report.violations] == [
        (4, Fraction(1, 5), Fraction(91, 25)),
        (5, Fraction(-1, 5), Fraction(91, 25)),
    ]


def test_oracle_catches_a_broken_estimate(running_spec):
    # replace a midpoint cell by the left amplitude: nudging it back toward
    # the midpoint must lower the worst case, and the probe must say so
    model = full_model(running_spec, 0)
    est = estimate_full(model, running_spec.g)
    box = feasible_box(model)
    broken = with_value(est.fn, 1, 2, Fraction(4))   # was 3 = (4 + 2) / 2
    jump = Fraction(4 - 2)
    good = worst_case_energy(with_value(broken, 1, 2, 4 - jump / 2), running_spec.g, box, 12)
    bad = worst_case_energy(broken, running_spec.g, box, 12)
    assert good.value < bad.value
    report = perturbation_minimax_check(broken, running_spec.g, box, resolution=12)
    assert not report.passed
    assert any(p.worst < report.baseline for p in report.violations)


def test_empty_feasible_set():
    # hand-built geometry: coupled members too far apart for a [1, 2) gap
    box = FeasibleBox(
        l=0,
        G=((0, 0), (1, 2), (5, 6)),
        zones=(Zone(regions=(1, 2, 3), lo=1, hi=6),),
    )
    fn = PiecewiseFunction((Fraction(0), Fraction(6)), (Fraction(1),))
    with pytest.raises(EmptyFeasibleSet):
        worst_case_energy(fn, (Fraction(2), Fraction(1)), box, 4)


@pytest.mark.parametrize(
    "resolution, error",
    [(0, ValueError), (1, ValueError), (True, ValueError), (12.0, TypeError)],
    ids=["zero", "one", "bool", "float"],
)
@pytest.mark.parametrize("search", [worst_case_energy, perturbation_minimax_check])
def test_searches_reject_a_bad_resolution(running_spec, search, resolution, error):
    # fewer than 2 grid points per unit, or a float, which would build an inexact lattice
    est = estimate_full(full_model(running_spec, 0), running_spec.g)
    with pytest.raises(error):
        search(est, running_spec.g, est.box, resolution)


def test_searches_reject_a_box_the_estimate_does_not_fill(running_spec):
    # the estimate at l = 0 searched on the box of l = m: the worst case
    # would read 161/3 against a closed form of 2, and the probes would walk
    # cells that the estimate does not fill
    est = estimate_full(full_model(running_spec, 0), running_spec.g)
    other = feasible_box(full_model(running_spec, running_spec.m))
    moved = FeasibleBox(l=0, G=tuple((lo + 1, hi + 1) for lo, hi in est.box.G), zones=())
    for box in (other, moved):
        for search in (worst_case_energy, perturbation_minimax_check):
            with pytest.raises(ValueError, match=r"the box \(l=\d+, G=.*\) is not the estimate's \(l=0, G="):
                search(est, running_spec.g, box, 12)
    # an equal box is the estimate's, and a bare function is not checked
    assert worst_case_energy(est, running_spec.g, feasible_box(full_model(running_spec, 0)), 12).value == 2
    assert worst_case_energy(est.fn, running_spec.g, other, 12).value == Fraction(161, 3)


def test_verify_scenario_never_raises():
    rng = random.Random(0)
    for _ in range(100):
        spec = random_spec(rng, m_range=(1, 6), n_range=(2, 6))
        for row in verify_scenario(spec):
            # the only failure is the known inverted forced-span defect
            assert row.passed or (
                row.name == "width-two-energy-equality" and row.detail.endswith("is inverted")
            ), (spec, row)


def test_sweep_is_deterministic_and_green():
    first = exhaustive_consistency_sweep(8, seed=7)
    second = exhaustive_consistency_sweep(8, seed=7)
    assert first == second == CheckResult("random-consistency-sweep(seed=7)", True, "8/8 random signals")


def test_random_spec_reproducible():
    a = random_spec(random.Random(99))
    b = random_spec(random.Random(99))
    assert a == b


def test_verify_scenario_green(running_spec):
    results = verify_scenario(running_spec)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = {r.name for r in results}
    assert "minimax-worst-case-equality" in names
    assert "width-two-energy-equality" in names


def test_verify_checks_the_scenario_observations(example6_spec):
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    results = verify_scenario(example6_spec, obs)
    assert all(r.passed for r in results), results
    assert results[-1] == CheckResult(
        "scenario-observations", True,
        "truth inside every interval at all 4 references; truth energy = closed form at 4",
    )
    truth_energies = [
        energy_between(estimate_partial(infer_model(obs, l), example6_spec.g).fn, truth_function(example6_spec, l))
        for l in range(4)
    ]
    assert truth_energies == [Fraction(11, 4), Fraction(35, 4), Fraction(41, 4), Fraction(21, 4)]
    # the chain at l = 0 is checked for containment only
    chain = validate_spec(SignalSpec.from_columns(g=[4, 2], n=[3, 2], f=["1/3", "1/4"]))
    assert verify_scenario(chain, ObservationSet.of([(3, 1)], chain.g))[-1] == CheckResult(
        "scenario-observations", True,
        "truth inside every interval at all 3 references; truth energy = closed form at 2",
    )


def test_verify_scenario_observations_fail_rows(running_spec, monkeypatch):
    # a pattern of another signal places the truth outside its interval
    results = verify_scenario(running_spec, ObservationSet.of([(3, 1)], running_spec.g))
    assert results[-1] == CheckResult("scenario-observations", False, "l=0: truth D_1=7/4 outside (2, 4)")
    # a closed form off by one no longer matches the truth's energy
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "closed_form_energy", lambda model, g: closed_form_energy(model, g) + 1)
        results = verify_scenario(running_spec, ObservationSet.of([(2, 3)], running_spec.g))
    assert results[-1] == CheckResult("scenario-observations", False, "l=0: truth energy 4 != closed form 5")
    # a run anchored at the reference meets the known inverted forced-span defect
    spec = validate_spec(SignalSpec.from_columns(g=[-2, 4], n=[2, 2], f=["58/97", "40/97"]))
    results = verify_scenario(spec, ObservationSet.of([(1, 1)], spec.g))
    assert results[-1] == CheckResult("scenario-observations", False, "l=0: forced span for region 2 is inverted")
    assert all(r.passed for r in results[:-1])


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
    const = sum(o.max_energy for o in wc.stretches if not o.members)   # the forced spans
    assert const + zone.max_energy == wc.value == max(energies.values())
    assert const + zone.min_energy == min(energies.values())
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
        l=0, G=((0, 0), (1, 3), (2, 4)), zones=(Zone(regions=(1, 2, 3), lo=1, hi=4),)
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
        zones=(Zone(regions=(1, 2, 3, 4), lo=1, hi=7),),
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
    fn = with_value(estimate_partial(model, g).fn, Fraction(7, 3), Fraction(13, 4), Fraction(5, 3))
    assert Fraction(7, 3) in fn.breakpoints
    for resolution in (4, 5):
        _check_against_brute_force(fn, g, box, resolution)


def _random_zone_case(rng, size):
    """A random box of one zone with ``size`` members (widths 1-3, upper
    ends non-decreasing), a random function on it and random amplitudes."""
    G, lo, hi = [(0, 0)], 0, 0
    for _ in range(size):
        lo += rng.randint(0, 2)
        hi = lo + rng.randint(max(1, hi - lo), 3)
        G.append((lo, hi))
    box = FeasibleBox(
        l=0, G=tuple(G), zones=(Zone(regions=tuple(range(1, len(G) + 1)), lo=G[1][0], hi=hi),)
    )
    cuts = sorted({Fraction(0), Fraction(hi), *(Fraction(rng.randint(0, 4 * hi), 4) for _ in range(3))})
    fn = PiecewiseFunction(
        tuple(cuts), tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in cuts[1:])
    )
    g = tuple(Fraction(rng.randint(-4, 4)) for _ in G[1:])
    return fn, g, box


def test_chain_sweep_matches_brute_force_on_random_boxes():
    # the sweep visits only candidate vertices of each zone; every grid
    # placement of random boxes checks it, and a coupled box with none
    # must raise
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        fn, g, box = _random_zone_case(rng, rng.randint(2, 4))
        for resolution in (2, 3, 4):
            feasible = bool(_brute_force_chain(fn, g, box, resolution))
            outcomes[feasible] += 1
            if feasible:
                _check_against_brute_force(fn, g, box, resolution)
            else:
                with pytest.raises(EmptyFeasibleSet):
                    worst_case_energy(fn, g, box, resolution)
    assert outcomes[True] and outcomes[False], outcomes
    # a lone member's extremes are one max and one min over its candidates,
    # and its witness the earliest maximal one; it always has a grid point
    lone = random.Random(12)
    for _ in range(50):
        fn, g, box = _random_zone_case(lone, 1)
        for resolution in (2, 3, 4):
            _check_against_brute_force(fn, g, box, resolution)
    # under the midpoint of its two amplitudes, 2 and the padding's 0, every
    # placement ties, so the witness is its earliest grid point
    box = FeasibleBox(l=0, G=((0, 0), (1, 3)), zones=(Zone(regions=(1, 2), lo=1, hi=3),))
    fn = PiecewiseFunction(tuple(map(Fraction, (0, 1, 3))), (Fraction(2), Fraction(1)))
    for resolution in (2, 3, 4):
        _check_against_brute_force(fn, (Fraction(2),), box, resolution)
        (zone,) = worst_case_energy(fn, (Fraction(2),), box, resolution).zones
        assert zone.max_energy == zone.min_energy
        assert zone.argmax == (1 + Fraction(1, resolution),)


def test_chain_sweep_cost_does_not_grow_with_resolution():
    # a million grid points per unit interval: the sweep visits only a
    # handful of candidate vertices per member, so this stays fast
    g = (Fraction(4), Fraction(2))
    model = infer_model(ObservationSet.of([(3, 1)], g), 0)
    est = estimate_partial(model, g)
    wc = worst_case_energy(est, g, est.box, 10**6)
    assert wc.value == Fraction(1499999, 250000)
    assert wc.witness == {0: 0, 1: Fraction(2000001, 10**6), 2: Fraction(3000001, 10**6)}


def test_empty_feasible_set_on_the_second_step():
    # members 1 -> 2 can keep a [1, 2) gap, members 2 -> 3 cannot
    fn = PiecewiseFunction((Fraction(0), Fraction(7)), (Fraction(1),))
    g = (Fraction(2), Fraction(1), Fraction(3))
    first_step = FeasibleBox(
        l=0, G=((0, 0), (1, 2), (2, 3)), zones=(Zone(regions=(1, 2, 3), lo=1, hi=3),)
    )
    assert worst_case_energy(fn, g[:2], first_step, 4).zones[0].argmax
    box = FeasibleBox(
        l=0,
        G=((0, 0), (1, 2), (2, 3), (6, 7)),
        zones=(Zone(regions=(1, 2, 3, 4), lo=1, hi=7),),
    )
    with pytest.raises(EmptyFeasibleSet):
        worst_case_energy(fn, g, box, 4)


def test_zone_member_outside_its_zone_raises():
    # member 2's interval (1, 10) runs past the zone's end at 4
    box = FeasibleBox(
        l=0,
        G=((0, 0), (1, 2), (1, 10), (3, 4)),
        zones=(Zone(regions=(1, 2, 3, 4), lo=1, hi=4),),
    )
    fn = PiecewiseFunction((Fraction(0), Fraction(4)), (Fraction(1),))
    with pytest.raises(ValueError, match="zone members must lie inside the zone"):
        worst_case_energy(fn, (Fraction(2), Fraction(1), Fraction(3)), box, 4)


def _random_fn(rng, lo, hi):
    """A piecewise constant function over about [lo, hi], breakpoint
    denominators 1-9."""
    cuts = sorted({Fraction(rng.randint((lo - 1) * q, (hi + 1) * q), q)
                   for q in (rng.randint(1, 9) for _ in range(rng.randint(2, 6)))})
    if len(cuts) < 2:
        cuts.append(cuts[0] + 1)
    return PiecewiseFunction(tuple(cuts), tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in cuts[1:]))


def _forced_outcome(fn, g, box, zone, resolution):
    """The kernel, the generator and then the sweep, on a member-less
    zone, with the reference integral it must equal.  The pieces are built
    here by definition (the cuts lo, fn's breakpoints inside and hi, fn's
    value at each midpoint) and put on integers: cuts over N, values and
    the amplitude over D."""
    cuts = [Fraction(zone.lo), *(x for x in fn.breakpoints if zone.lo < x < zone.hi), Fraction(zone.hi)]
    vals = [fn.evaluate((a + b) / 2) for a, b in zip(cuts, cuts[1:])]
    c = amp(g, *zone.regions)
    want = span_energy_reference(cuts, vals, c)
    N = math.lcm(resolution, *(x.denominator for x in cuts))
    D = math.lcm(*(v.denominator for v in (c, *vals)))
    table = oracle._zone_terms(
        [int(x * N) for x in cuts], [int(v * D) for v in vals], [int(c * D)], box, zone.members, resolution, N
    )
    top, bottom, argmax = oracle._sweep(table, zone, resolution)
    got = oracle.ZoneOutcome(zone.members, Fraction(top, N * D * D), Fraction(bottom, N * D * D), argmax)
    return got, oracle.ZoneOutcome((), want, want, ())


def test_forced_span_energy_matches_the_piece_integral():
    # a member-less zone has one energy, integrated on integers; a point
    # stretch has none
    rng = random.Random(41)
    box = FeasibleBox(l=0, G=((0, 0),), zones=())
    points = nonzero = 0
    for _ in range(300):
        lo = rng.randint(-8, 6)
        zone = Zone(regions=(rng.randint(0, 4),), lo=lo, hi=lo + rng.randint(0, 4))
        fn = _random_fn(rng, zone.lo, zone.hi)
        g = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        for resolution in (2, 12, 50):
            got, want = _forced_outcome(fn, g, box, zone, resolution)
            assert got == want, (fn, g, zone)
        points += zone.lo == zone.hi
        nonzero += want.max_energy != 0
        if zone.lo == zone.hi:
            assert want.max_energy == 0
    assert points and nonzero


def test_forced_span_outcomes_match_the_piece_integral_on_random_specs():
    # every forced span of the box, under its own estimate (which copies the
    # truth there, so 0) and under a random function, and the worst case's
    # member-less outcomes sum them
    rng = random.Random(43)
    spans = 0
    for _ in range(200):
        spec = random_spec(rng, m_range=(1, 6), n_range=(2, 3))
        patterns = enumerate_atlas(spec).patterns
        k = rng.randrange(len(patterns))
        observed = (patterns, [patterns[k]], list(patterns[k:k + 2]))[rng.randrange(3)]
        model = infer_model(ObservationSet.of(observed, spec.g), rng.randint(0, spec.m))
        try:
            est = estimate_partial(model, spec.g)
        except AssertionError:   # the known inverted forced-span defect
            continue
        box = est.box
        lo, hi = est.span
        other = _random_fn(rng, lo, hi)
        const = Fraction(0)
        for zone in box.stretches:
            if zone.members:
                continue
            got, want = _forced_outcome(est.fn, spec.g, box, zone, 12)
            assert got == want and want.max_energy == 0
            got, want = _forced_outcome(other, spec.g, box, zone, 12)
            assert got == want
            const += want.max_energy
            spans += 1
        forced = [o for o in worst_case_energy(other, spec.g, box, 12).stretches if not o.members]
        assert sum(o.max_energy for o in forced) == const
    assert spans > 400


def _member_term_reference(cuts, vals, c, d, x):
    """(c - f)^2 - (d - f)^2 integrated from the first cut to x, by
    definition: the pieces cut off at x, each integrated in Fractions."""
    clipped = [*(a for a in cuts if a < x), x]
    vals = [Fraction(v) for v in vals]
    return span_energy_reference(clipped, vals, Fraction(c)) - span_energy_reference(clipped, vals, Fraction(d))


def test_member_terms_take_one_walk_over_the_pieces():
    # one walk gives a member's terms at all of its ascending candidates;
    # each must equal the integral by definition, for candidates at the
    # first and the last cut, on a cut between them, and between cuts
    rng = random.Random(47)
    seen = {"first": 0, "last": 0, "cut": 0, "between": 0}
    for _ in range(400):
        step = rng.randint(1, 4)
        first = step * rng.randint(-8, 4)
        last = first + step * rng.randint(1, 8)
        inner = rng.sample(range(first + 1, last), min(rng.randint(0, 5), last - first - 1))
        cuts = [first, *sorted(inner), last]
        vals = [rng.randint(-9, 9) for _ in cuts[1:]]
        c, d = rng.randint(-9, 9), rng.randint(-9, 9)
        ys = sorted(rng.sample(range(first // step, last // step + 1), rng.randint(1, (last - first) // step + 1)))
        got = oracle._terms(cuts, vals, c, d, ys, step)
        assert got == [_member_term_reference(cuts, vals, c, d, y * step) for y in ys], (cuts, vals, c, d, ys, step)
        for y in ys:
            x = y * step
            seen["first" if x == first else "last" if x == last else "cut" if x in inner else "between"] += 1
    assert all(seen.values()), seen


def _reference_auto_deltas(est, g, n):
    """The probe magnitudes as first defined: a linear scan over the cells
    for the midpoint or chain-interior cell that holds unit cell (n-1, n)."""
    cell = next(c for c in est.cells if c.lo <= n - 1 and n <= c.hi)
    if cell.tag == MIDPOINT:
        gap = abs(amp(g, cell.indices[0]) - amp(g, cell.indices[1]))
    else:
        assert cell.tag == CHAIN_INTERIOR
        triple = [amp(g, j) for j in cell.indices]
        gap = max(triple) - min(triple)
    return (gap / 10, -gap / 10, gap / 2, -gap / 2)


def _reference_probes(est, g, box, resolution):
    """The probes by definition: every unit cell of the estimate span in a
    zone, the estimate altered on that cell, and the whole worst case
    searched again."""
    base = worst_case_energy(est, g, box, resolution)
    lo, hi = est.span
    probes = []
    for n in range(lo + 1, hi + 1):
        if not any(z.lo <= n - 1 and n <= z.hi for z in box.zones):
            continue
        gamma = est.fn.evaluate(Fraction(2 * n - 1, 2))
        for delta in _reference_auto_deltas(est, g, n):
            value = worst_case_energy(with_value(est.fn, n - 1, n, gamma + delta), g, box, resolution).value
            probes.append(oracle.PerturbationProbe(n, delta, value, value >= base.value, value > base.value))
    return oracle.PerturbationReport(base, tuple(probes))


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:   # both sides must fail the same way
        return f"{type(exc).__name__}: {exc}"


@functools.cache
def _probe_cases():
    """The probe tests' two case lists of (estimate, g, box, resolutions).
    The walk cases: 120 at R = 4, partial estimates of random signals, each
    followed by the estimate bent on one unit cell or its left half.  The
    fractional cases: 36 at R in {2, 3, 7, 12} whose amplitudes have
    denominators 2-9, which give the cell values and the gaps a common
    denominator D > 1, so that a probed value gamma + gap/10 or
    gamma + gap/2 lies on 10 D and on no coarser lattice."""
    rng = random.Random(23)
    walk = []
    while len(walk) < 120:
        spec = random_spec(rng, m_range=(1, 5), n_range=(2, 3))
        l = rng.randint(0, spec.m)
        patterns = enumerate_atlas(spec).patterns
        k = rng.randrange(len(patterns))
        observed = (patterns, [patterns[k]], list(patterns[k:k + 2]))[len(walk) % 3]
        try:
            model = infer_model(ObservationSet.of(observed, spec.g), l)
            est = estimate_partial(model, spec.g)
        except AssertionError:   # the known inverted forced-span defect
            continue
        # and the estimate off by one on a random unit cell or its left half,
        # so that a forced span can hold a value other than the signal's
        n = rng.randint(est.span[0] + 1, est.span[1])
        bent = with_value(est.fn, n - 1, n - Fraction(rng.randint(0, 1), 2), est.fn.evaluate(n - 1) + 1)
        walk += [(e, spec.g, feasible_box(model), (4,)) for e in (est, Estimate(est.cells, bent, est.box))]
    rng = random.Random(29)
    fractional = []
    while len(fractional) < 36:
        drawn = random_spec(rng, m_range=(1, 4), n_range=(2, 3))
        g = []
        while len(g) < drawn.m:
            c = Fraction(rng.randint(-30, 30), rng.randint(2, 9))
            if c and (not g or c != g[-1]):
                g.append(c)
        spec = validate_spec(SignalSpec.from_columns(g=g, n=drawn.n, f=drawn.f))
        patterns = enumerate_atlas(spec).patterns
        k = rng.randrange(len(patterns))
        observed = (patterns, [patterns[k]], list(patterns[k:k + 2]))[len(fractional) % 3]
        try:
            model = infer_model(ObservationSet.of(observed, spec.g), rng.randint(0, spec.m))
            est = estimate_partial(model, spec.g)
        except AssertionError:   # the known inverted forced-span defect
            continue
        fractional.append((est, spec.g, feasible_box(model), (2, 3, 7, 12)))
    return walk, fractional


def _assert_probes_match_the_unit_cell_scan(cases):
    # the whole report, base included, equals the probes by definition
    for est, g, box, resolutions in cases:
        for resolution in resolutions:
            assert _outcome(lambda: perturbation_minimax_check(est, g, box, resolution)) == _outcome(
                lambda: _reference_probes(est, g, box, resolution)
            )


def test_probe_walk_matches_the_unit_cell_scan():
    walk, _ = _probe_cases()
    cells = [cell for est, *_ in walk for cell in est.cells]
    assert any(c.tag == MIDPOINT and c.hi - c.lo == 2 for c in cells)
    assert any(c.lo == c.hi for c in cells)
    assert any(c.tag == CHAIN_INTERIOR for c in cells)
    _assert_probes_match_the_unit_cell_scan(walk)


def test_probes_with_fractional_amplitudes_match_the_unit_cell_scan():
    _, fractional = _probe_cases()
    assert {x.denominator for _, g, *_ in fractional for x in g} > {1}
    _assert_probes_match_the_unit_cell_scan(fractional)


def test_probes_read_an_estimate_through_its_function_and_box():
    # the probes scale their shifts from the box's zones, not from the
    # estimate's cells, so a bare function is probed as the Estimate that
    # carries it
    walk, fractional = _probe_cases()
    for est, g, box, resolutions in walk + fractional:
        for resolution in resolutions:
            assert _outcome(lambda: perturbation_minimax_check(est.fn, g, box, resolution)) == _outcome(
                lambda: perturbation_minimax_check(est, g, box, resolution)
            )


def _shared(values):
    """Every value is a Fraction, and equal values are one object."""
    first = {}
    return all(type(v) is Fraction and first.setdefault(v, v) is v for v in values)


def test_each_call_builds_one_fraction_per_distinct_value():
    # a report's worst values, its worst case's stretch energies and an
    # estimate's cell values each come from a per-call table: an exact
    # field built as an int, or built twice, fails here by name
    walk, fractional = _probe_cases()
    forced_zeros = 0
    for est, g, box, resolutions in walk + fractional:
        assert _shared(c.value for c in est.cells)
        assert _shared(x for c in est.cells for x in (c.lo, c.hi))
        for resolution in resolutions:
            try:
                report = perturbation_minimax_check(est, g, box, resolution)
            except ValueError:   # an infeasible chain or a cell with no jump: no report
                continue
            worst = report.worst
            assert _shared(p.worst for p in report.probes)
            assert _shared(p.delta for p in report.probes)
            assert _shared(e for o in worst.stretches for e in (o.max_energy, o.min_energy))
            assert all(type(x) is Fraction for x in (worst.value, *worst.witness.values()))
            assert all(type(y) is Fraction for o in worst.stretches for y in o.argmax)
            forced_zeros += sum(not o.members and o.max_energy == 0 for o in worst.stretches)
    assert forced_zeros > 0


def test_a_built_estimate_is_searched_on_its_own_function(running_spec):
    # the searches read the integer table the estimator stores with its fn;
    # an Estimate built with another fn carries that fn's table, so it is
    # searched on that fn, not on its cells: here a cell lifted by one, on
    # the full atlas at every reference and on one pattern at l = 0
    g, patterns = running_spec.g, enumerate_atlas(running_spec).patterns
    models = [full_model(running_spec, l) for l in range(running_spec.m + 1)]
    models.append(infer_model(ObservationSet.of(patterns[:1], g), 0))
    for model in models:
        est = estimate_partial(model, g)
        cell = next(c for c in est.cells if c.tag == MIDPOINT)
        bent = with_value(est.fn, cell.lo, cell.hi, cell.value + 1)
        built = Estimate(est.cells, bent, est.box)
        for resolution in (4, 12):
            want = worst_case_energy(bent, g, est.box, resolution)
            assert want.value > worst_case_energy(est, g, est.box, resolution).value
            assert worst_case_energy(built, g, est.box, resolution) == want
            assert perturbation_minimax_check(built, g, est.box, resolution).worst == want


# one record of each kind from scenarios/running.json's full atlas at l = 0
# (resolution 12): the second stretch of the box, its cell, its outcome,
# and the first probe
RECORD_FIELDS = {
    "Zone": ("regions", "lo", "hi"),
    "EstimateCell": ("lo", "hi", "value", "indices"),
    "ZoneOutcome": ("members", "max_energy", "min_energy", "argmax"),
    "PerturbationProbe": ("cell", "delta", "worst", "ok", "strict"),
}
RECORD_REPRS = {
    "Zone": "Zone(regions=(1, 2), lo=1, hi=2)",
    "EstimateCell": (
        "EstimateCell(lo=Fraction(1, 1), hi=Fraction(2, 1), value=Fraction(3, 1), indices=(1, 2))"
    ),
    "ZoneOutcome": (
        "ZoneOutcome(members=(1,), max_energy=Fraction(1, 1), min_energy=Fraction(1, 1), "
        "argmax=(Fraction(13, 12),))"
    ),
    "PerturbationProbe": (
        "PerturbationProbe(cell=2, delta=Fraction(1, 5), worst=Fraction(178, 75), ok=True, strict=True)"
    ),
}


def test_the_per_stretch_records_are_immutable_and_keep_their_repr():
    spec, _ = load_scenario(str(Path(__file__).parents[1] / "scenarios" / "running.json"))
    est = estimate_full(full_model(spec, 0), spec.g)
    records = {
        "Zone": est.box.stretches[1],
        "EstimateCell": est.cells[1],
        "ZoneOutcome": worst_case_energy(est, spec.g, est.box, 12).stretches[1],
        "PerturbationProbe": perturbation_minimax_check(est, spec.g, est.box, 12).probes[0],
    }
    assert {name: repr(record) for name, record in records.items()} == RECORD_REPRS
    for name, record in records.items():
        assert type(record).__name__ == name
        for field in (*RECORD_FIELDS[name], "other"):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        assert repr(record) == RECORD_REPRS[name]


def test_probe_finds_a_worst_case_at_its_own_cell_end(running_spec):
    # a width-two interval (1, 3) between amplitudes 4 and 2, estimated at
    # 5/2 instead of its midpoint 3: lifting unit cell (2, 3) by 1 to 7/2
    # makes the worst case peak at the discontinuity placement 2, where the
    # probed cell starts and the estimate itself has no cut
    g = running_spec.g
    observed = [enumerate_atlas(running_spec).patterns[0]]
    est = estimate_partial(infer_model(ObservationSet.of(observed, g), 0), g)
    assert (est.cells[1].lo, est.cells[1].hi, est.cells[1].value) == (1, 3, 3)
    bent = Estimate(est.cells, with_value(est.fn, 1, 3, Fraction(5, 2)), est.box)
    report = perturbation_minimax_check(bent, g, est.box, resolution=4)
    assert repr(report) == repr(_reference_probes(bent, g, est.box, 4))
    lifted = next(p for p in report.probes if (p.cell, p.delta) == (3, 1))
    assert lifted.worst == Fraction(9, 2) + 2   # 9/4 on each unit cell, and the other zone's 2


def test_probes_rebuild_no_function(running_spec, monkeypatch):
    # a probe sets its unit cell inside the pieces of its zone; it never
    # builds a whole altered estimate
    ests = [estimate_full(full_model(running_spec, l), running_spec.g) for l in range(running_spec.m + 1)]
    built = []
    real = PiecewiseFunction.__post_init__

    def counted(self):
        built.append(self)
        real(self)
    monkeypatch.setattr(PiecewiseFunction, "__post_init__", counted)
    for est in ests:
        assert perturbation_minimax_check(est, running_spec.g, est.box, resolution=4).probes
    assert built == []


def _adds_a_cut(est, zone, n):
    """Whether unit cell (n-1, n) of ``zone`` splits the zone's pieces: an
    end of the cell is not a cut of the zone, or a cut lies inside it."""
    cuts = {zone.lo, zone.hi, *(x for x in est.fn.breakpoints if zone.lo < x < zone.hi)}
    return not {n - 1, n} <= cuts or any(n - 1 < x < n for x in cuts)


def test_each_probed_cell_is_searched_once(running_spec, monkeypatch):
    # the base search builds one candidate table per zone, and the four
    # shifts of a probed unit cell share one more: their worst cases are
    # quadratics in the shift over the same candidates; a cell whose ends
    # are consecutive cuts of its zone reads the base's table instead
    built = []
    real = oracle._zone_terms

    def counted(*args):
        out = real(*args)
        built.append(bool(out[1]))   # a zone without members gets no candidates
        return out
    monkeypatch.setattr(oracle, "_zone_terms", counted)
    cases = [(estimate_full(full_model(running_spec, l), running_spec.g), running_spec.g, 12)
             for l in range(running_spec.m + 1)]
    g = (Fraction(4), Fraction(2))
    cases.append((estimate_partial(infer_model(ObservationSet.of([(3, 1)], g), 0), g), g, 50))
    # the width-two intervals (1, 3) and (4, 6) are one estimate cell each, so each of their
    # four unit cells adds a cut at its interval's middle
    observed = [enumerate_atlas(running_spec).patterns[0]]
    cases.append((estimate_partial(infer_model(ObservationSet.of(observed, running_spec.g), 0), running_spec.g),
                  running_spec.g, 12))
    cutting = []
    for est, g, resolution in cases:
        built.clear()
        report = perturbation_minimax_check(est, g, est.box, resolution)
        probed = {(z, p.cell) for p in report.probes for z in est.box.zones if z.lo < p.cell <= z.hi}
        assert probed and len(report.probes) == 4 * len(probed)
        cutting.append(sum(_adds_a_cut(est, z, n) for z, n in probed))
        assert sum(built) == len(est.box.zones) + cutting[-1]
    # every zone of a full-atlas estimate and of the [(3, 1)] chain is cut at every integer
    assert cutting == [0] * (running_spec.m + 2) + [4]


def test_probe_of_a_cell_with_no_amplitude_jump_raises():
    # the interval between two equal amplitudes has no jump to scale a probe to
    g = (Fraction(2), Fraction(2))
    est = estimate_partial(infer_model(ObservationSet.of([(3, 1), (3, 2)], g), 0), g)
    with pytest.raises(ValueError, match=r"unit cell \(2, 3\) meets no amplitude jump"):
        perturbation_minimax_check(est, g, est.box)


_PASSED = {
    "pattern-atlas-and-count-equivalence": "3 cells, 120 exact offsets, every region run",
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


def _atlas_patch(edit):
    """A patch of ``enumerate_atlas``: the true atlas's cells passed through
    ``edit``, under ``edit``'s name."""
    def patch(real):
        return lambda spec: PatternAtlas(edit(real(spec).cells))
    patch.__name__ = edit.__name__
    return patch


@_atlas_patch
def _repeated_pattern(cells):   # the last cell carries the first cell's pattern
    return (*cells[:-1], AtlasCell(cells[-1].delta_lo, cells[-1].delta_hi, cells[0].pattern))


@_atlas_patch
def _past_one(cells):   # the last cell ends at offset 2
    return (*cells[:-1], AtlasCell(cells[-1].delta_lo, Fraction(2), cells[-1].pattern))


@_atlas_patch
def _gap(cells):   # the first cell ends halfway to the second
    return (AtlasCell(cells[0].delta_lo, cells[0].delta_hi / 2, cells[0].pattern), *cells[1:])


@_atlas_patch
def _rotated(cells):   # each cell carries the next cell's pattern: the same set of patterns
    return tuple(AtlasCell(c.delta_lo, c.delta_hi, d.pattern) for c, d in zip(cells, (*cells[1:], cells[0])))


def _overcount_at_zero(real):
    def count(spec, delta):
        pattern = real(spec, delta)
        return SamplingPattern(tuple(e + 1 for e in pattern.eta)) if delta == 0 else pattern
    return count


def _shifted_truth(real):
    return lambda spec, l: tuple(p + 1 for p in real(spec, l))


def _zero_shift(real):
    return lambda amps, cell: (0, *real(amps, cell)[1:])


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
            (1, "argmin energy 4 != largest-jump reference 2 ({0: Fraction(0, 1), "
             "1: Fraction(-1, 1), 2: Fraction(-2, 1), 3: Fraction(-3, 1), 4: Fraction(-4, 1)})"),
        ),
        (
            "cumulative_count", _miscounting,
            {
                "pattern-atlas-and-count-equivalence":
                    (False, "offset 0: run (i=1, K=0) counts direct=2 formula=3"),
            },
            (0, "offset 0: run (i=1, K=0) counts direct=2 formula=3"),
        ),
        (
            "truth_function", _doubled_truth,
            {"full-set-round-trip-and-grid-agreement": (False, "l=0: estimate(0) = 4 != truth 8")},
            (0, "l=0: estimate(0) = 1 != truth 2"),
        ),
        (
            "infer_model", _first_pattern_lost,
            {
                "full-set-round-trip-and-grid-agreement":
                    (False, "l=0: full atlas left width-two indices [1]"),
                "minimax-worst-case-equality": (False, "l=0: no full estimate, width-two indices [1]"),
                "width-two-energy-equality": (True, "4 adjacent-pair observation sets"),
            },
            (0, "l=0: full atlas left width-two indices [3]"),
        ),
        (
            "infer_model", _one_pattern_kept,   # l = 2 sees a chain, so it has no closed form
            {
                "full-set-round-trip-and-grid-agreement":
                    (False, "l=0: full atlas left width-two indices [1, 2]"),
                "best-reference-law": (False, "no closed-form energy for references [2]"),
                "minimax-worst-case-equality": (False, "l=0: no full estimate, width-two indices [1, 2]"),
            },
            (0, "l=0: full atlas left width-two indices [1, 2, 3]"),
        ),
        (
            "enumerate_atlas", _repeated_pattern,
            {
                "pattern-atlas-and-count-equivalence": (False, "atlas carries 2 patterns, expected 3"),
                "full-set-round-trip-and-grid-agreement":
                    (False, "l=0: full atlas left width-two indices [1]"),
                "minimax-worst-case-equality": (False, "l=0: no full estimate, width-two indices [1]"),
                "width-two-energy-equality": (True, "2 adjacent-pair observation sets"),
            },
            (0, "atlas carries 3 patterns, expected 4"),
        ),
        (
            "enumerate_atlas", _past_one,
            {"pattern-atlas-and-count-equivalence": (False, "atlas cells do not span [0, 1)")},
            (0, "atlas cells do not span [0, 1)"),
        ),
        (
            "enumerate_atlas", _gap,
            {"pattern-atlas-and-count-equivalence": (False, "atlas cells are not adjacent")},
            (0, "atlas cells are not adjacent"),
        ),
        (
            "enumerate_atlas", _rotated,
            {"pattern-atlas-and-count-equivalence": (False, "cell [0,1/4) pattern mismatch at midpoint")},
            (0, "cell [0,15/97) pattern mismatch at midpoint"),
        ),
        (
            "count_direct", _overcount_at_zero,   # region 1 holds n_1 + 1 = 3 samples
            {"pattern-atlas-and-count-equivalence": (False, "count 3 outside {n-1, n} at offset 0")},
            (0, "count 3 outside {n-1, n} at offset 0"),
        ),
        (
            "translate", _shifted_truth,
            {"full-set-round-trip-and-grid-agreement": (False, "l=0: truth D_1=11/4 outside (1, 2)")},
            (0, "l=0: truth D_1=218/97 outside (1, 2)"),
        ),
        (
            "_auto_deltas", _zero_shift,   # a shift of 0 leaves the worst case where it was
            {
                "minimax-worst-case-equality":
                    (False, "l=0: perturbing cell (1,2) by 0 moved the worst case to 2 (baseline 2)"),
            },
            None,   # the sweep runs no probes
        ),
    ],
)
def test_failing_checks_report_their_messages(running_spec, monkeypatch, name, patch, changed, sweep):
    monkeypatch.setattr(oracle, name, patch(getattr(oracle, name)))
    expected = [CheckResult(check, *changed.get(check, (True, detail))) for check, detail in _PASSED.items()]
    assert verify_scenario(running_spec) == expected

    if sweep is None:
        assert exhaustive_consistency_sweep(3, seed=1) == CheckResult(
            "random-consistency-sweep(seed=1)", True, "3/3 random signals",
        )
        return
    trial, message = sweep
    rng = random.Random(1)
    spec = [random_spec(rng) for _ in range(3)][trial]
    assert exhaustive_consistency_sweep(3, seed=1) == CheckResult(
        "random-consistency-sweep(seed=1)", False,
        f"trial {trial}: {message} (spec g={spec.g} n={spec.n} f={spec.f})",
    )


def test_sweep_needs_a_trial():
    with pytest.raises(ValueError, match="^need at least one trial$"):
        exhaustive_consistency_sweep(0)


def test_sweep_stops_at_its_first_failing_signal(monkeypatch):
    monkeypatch.setattr(oracle, "cumulative_count", _miscounting(oracle.cumulative_count))
    drawn = []

    def counted(rng):
        drawn.append(random_spec(rng))
        return drawn[-1]
    monkeypatch.setattr(oracle, "random_spec", counted)
    row = exhaustive_consistency_sweep(3, seed=1)
    assert len(drawn) == 1
    spec = drawn[0]
    assert row == CheckResult(
        "random-consistency-sweep(seed=1)", False,
        "trial 0: offset 0: run (i=1, K=0) counts direct=2 formula=3 "
        f"(spec g={spec.g} n={spec.n} f={spec.f})",
    )


def test_verify_cost_does_not_grow_with_region_length():
    spec = validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2, 10**9], f=["1/4", "1/2"]))
    results = verify_scenario(spec)
    assert len(results) == 5 and all(r.passed for r in results), results
    # partial estimates whose last region is a forced span of length about
    # n_3: the chain (1, 2) of pattern (3, 1, n_3) at l = 0, and a pair with
    # width-two intervals; the probes walk only the zones, so n_3 = 10^9
    # probes as n_3 = 3 does
    reports = []
    for n3 in (3, 10**9):
        spec = validate_spec(SignalSpec.from_columns(g=[4, 2, 5], n=[3, 2, n3], f=["1/3", "1/4", "1/5"]))
        patterns = enumerate_atlas(spec).patterns
        assert patterns[2].eta == (3, 1, n3)
        for observed in ([patterns[2]], patterns[:2]):
            model = infer_model(ObservationSet.of(observed, spec.g), 0)
            assert [z.members for z in model.chains.plus] == ([(1, 2)] if len(observed) == 1 else [])
            assert model.U
            est = estimate_partial(model, spec.g)
            report = perturbation_minimax_check(est, spec.g, est.box)
            reports.append((len(report.probes), report.passed, report.all_strict))
    assert reports == [(20, True, True)] * 4


def test_verify_derives_each_box_and_worst_case_once(running_spec, monkeypatch):
    # adjacent-pair sets, one worst case each; counted before the counters go in
    failure, pairs = oracle._check_width2_energy(running_spec, enumerate_atlas(running_spec))
    assert failure is None and pairs > 0
    calls = {"feasible_box": 0, "estimate_partial": 0, "_search": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (estimator, oracle):
        count(module, "feasible_box")
        count(module, "estimate_partial")
    count(oracle, "_search")   # the one worst-case search, which the probe check runs too
    results = verify_scenario(running_spec)
    assert all(r.passed for r in results), results
    assert results[-1].detail == f"{pairs} adjacent-pair observation sets"
    assert calls["feasible_box"] == calls["estimate_partial"] == running_spec.m + 1 + pairs
    assert calls["_search"] == running_spec.m + 1 + pairs


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
