"""Minimax estimates, closed-form energies, and the reference law."""

import random
from fractions import Fraction

import pytest
from conftest import amp, full_model, wide_spec
from corpus import corpus

from pcsamp import (
    ObservationSet,
    PiecewiseFunction,
    PartialObservations,
    SignalSpec,
    UncertaintyModel,
    absolute_error_bound,
    best_reference,
    closed_form_energies,
    closed_form_energy,
    enumerate_atlas,
    estimate_full,
    estimate_partial,
    infer_model,
    perturbation_minimax_check,
    random_spec,
    truth_function,
    validate_spec,
    worst_case_energy,
)
from pcsamp.signal_core import on_lattice


def test_full_estimate_cells_running(running_spec):
    est = estimate_full(full_model(running_spec, 0), running_spec.g)
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
    assert closed_form_energy(full_model(running_spec, 0), running_spec.g) == 2
    # reference 1 leaves jumps of 4 and 2: (4/2)^2 + (2/2)^2 = 5
    assert closed_form_energy(full_model(running_spec, 1), running_spec.g) == 5


def test_value_at_honors_closed_known_spans(running_spec):
    est = estimate_full(full_model(running_spec, 0), running_spec.g)
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


def test_models_that_no_estimate_can_fill_raise():
    # widths 3 and 4: the cells would cover [0, 4] of a [0, 6] box
    with pytest.raises(ValueError, match=r"^interval G\[1\] = \(1, 4\) has width 3, not 1 or 2$"):
        UncertaintyModel(l=0, G=((0, 0), (1, 4), (2, 6)))
    # a width of -2, from which the closed form would read 1/2
    with pytest.raises(ValueError, match=r"^interval G\[1\] = \(3, 1\) has width -2, not 1 or 2$"):
        UncertaintyModel(l=0, G=((0, 0), (3, 1), (4, 5)))
    # the reference's interval is (0, 0), and the reference one of the indices
    for l, G in ((0, ((0, 1), (1, 2))), (2, ((0, 0), (1, 2)))):
        with pytest.raises(ValueError, match=rf"^the reference's interval G\[{l}\] must be \(0, 0\)$"):
            UncertaintyModel(l=l, G=G)
    # widths of two, but a chain of two members on (1, 3) needs three unit
    # cells, the last past the box's end at 3
    model = UncertaintyModel(l=0, G=((0, 0), (1, 3), (1, 3)))
    with pytest.raises(ValueError, match=r"^coupled zone \(1, 2\) on \(1, 3\) needs one unit cell per region$"):
        estimate_partial(model, [1, 2])


def test_a_set_with_no_regions_has_the_zero_estimate():
    # m = 0: the box has no stretches, so the estimate has no cells and is zero
    model = infer_model(ObservationSet.of([()], []), 0)
    est = estimate_partial(model, [])
    assert est == estimate_full(model, [])
    assert est.cells == () and est.fn == PiecewiseFunction((0,), ())
    assert worst_case_energy(est, [], est.box).value == closed_form_energy(model, []) == 0
    assert perturbation_minimax_check(est, [], est.box).probes == ()
    assert est.value_at(0) == 0


def test_partial_degenerates_to_full():
    rng = random.Random(13)
    for _ in range(10):
        spec = random_spec(rng, m_range=(1, 6))
        for l in range(spec.m + 1):
            model = full_model(spec, l)
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


def _closed_form_reference(model, g):
    """The closed form summed term by term in Fractions."""
    if not model.chains.empty:
        return None

    def term(i):
        return ((amp(g, i) - amp(g, i + 1)) / 2) ** 2

    width_one = set(range(model.m + 1)) - model.U - {model.l}
    return sum((term(i) for i in width_one), Fraction(0)) + 2 * sum((term(i) for i in model.U), Fraction(0))


def test_closed_form_matches_fraction_sum():
    rng = random.Random(29)
    kinds = {"full": 0, "pair": 0, "chains": 0}
    for _ in range(150):
        spec = random_spec(rng, m_range=(1, 7), n_range=(2, 4))
        patterns = enumerate_atlas(spec).patterns
        g = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(spec.m)]
        k = rng.randrange(spec.m)
        for kind, observed in (("full", patterns), ("pair", patterns[k:k + 2])):
            obs = ObservationSet.of(observed, g)
            for l in range(spec.m + 1):
                model = infer_model(obs, l)
                expected = _closed_form_reference(model, g)
                assert closed_form_energy(model, g) == expected, (g, observed, l)
                kinds["chains" if expected is None else kind] += 1
    assert all(count > 50 for count in kinds.values()), kinds


def _bound_at_midpoints(model, g):
    return absolute_error_bound(model, g, {1: 3, 2: 1})   # the midpoints for g = (4, 2)


def _worst_case_of_the_right_estimate(model, g):
    est = estimate_full(model, [4, 2])
    return worst_case_energy(est, g, est.box, 12)


def _probes_of_the_right_estimate(model, g):
    est = estimate_full(model, [4, 2])
    return perturbation_minimax_check(est, g, est.box, resolution=12)


@pytest.mark.parametrize("g", [[4], [4, 2, 7], []], ids=["short", "long", "empty"])
@pytest.mark.parametrize(
    "read",
    [
        estimate_partial, closed_form_energy, _bound_at_midpoints,
        _worst_case_of_the_right_estimate, _probes_of_the_right_estimate,
    ],
    ids=[
        "estimate_partial", "closed_form_energy", "absolute_error_bound",
        "worst_case_energy", "perturbation_minimax_check",
    ],
)
def test_closed_form_needs_one_amplitude_per_region(running_spec, read, g):
    # every reader of the amplitudes checks their count against the regions
    with pytest.raises(ValueError, match=f"expected 2 amplitudes, got {len(g)}"):
        read(full_model(running_spec, 0), g)


def test_closed_form_unavailable_with_chains():
    model = infer_model(ObservationSet.of([(3, 1)], [4, 2]), 0)
    assert closed_form_energy(model, [4, 2]) is None


def _energies_by_reference(obs, g):
    """The per-reference loop, which ``closed_form_energies`` must equal."""
    return tuple(closed_form_energy(infer_model(obs, l), g) for l in range(obs.m + 1))


def test_one_pass_energies_equal_the_per_reference_loop():
    """At every reference of every distinct observation set of the corpus,
    chains included, and of full atlases, adjacent pairs and single
    patterns of wide signals up to m = 96, by repr."""
    seen, kinds = set(), {"energy": 0, "chains": 0}
    for case in corpus():
        if (case.draw, case.observed) in seen:
            continue
        seen.add((case.draw, case.observed))
        obs = ObservationSet.of(case.observed, case.spec.g)
        energies = closed_form_energies(obs, case.spec.g)
        assert repr(energies) == repr(_energies_by_reference(obs, case.spec.g)), case.observed
        kinds["chains"] += energies.count(None)
        kinds["energy"] += len(energies) - energies.count(None)
    assert kinds["chains"] > 1000 and kinds["energy"] > 10000, kinds

    rng = random.Random(47)
    for m in (8, 24, 48, 96):
        spec = wide_spec(rng, m)
        patterns = enumerate_atlas(spec).patterns
        k = rng.randrange(m)
        for observed in (patterns, patterns[k:k + 2], patterns[k:k + 1]):
            obs = ObservationSet.of(observed, spec.g)
            assert repr(closed_form_energies(obs, spec.g)) == repr(_energies_by_reference(obs, spec.g)), (m, k)


def test_one_pass_energies_mark_the_chain_and_check_the_amplitudes():
    obs = ObservationSet.of([(3, 1)], [4, 2])
    assert closed_form_energies(obs, [4, 2]) == (None, Fraction(10), Fraction(10))   # a chain at l = 0
    with pytest.raises(ValueError, match="expected 2 amplitudes, got 3"):
        closed_form_energies(obs, [4, 2, 7])


def test_best_reference_examples():
    assert best_reference([4, 2]) == 0      # jumps 4, 2, 2
    assert best_reference([1, 5]) == 2      # jumps 1, 4, 5
    assert best_reference([5]) == 0         # symmetric jumps tie to the smallest index
    assert best_reference(["1/2", "1", "1/2"]) == 0   # four jumps of 1/2 tie


def test_absolute_error_bound(running_spec):
    model = full_model(running_spec, 0)
    g = running_spec.g
    midpoints = {1: Fraction(3), 2: Fraction(1)}
    # midpoints give half the jump per interval: 1 + 1
    assert absolute_error_bound(model, g, midpoints) == 2
    one_sided = {1: Fraction(4), 2: Fraction(2)}
    assert absolute_error_bound(model, g, one_sided) == 2 + 2


def test_absolute_error_bound_checks_its_model_and_constants(running_spec, example6_spec):
    widths_two = infer_model(ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g), 0)
    assert widths_two.U
    with pytest.raises(PartialObservations, match="^the absolute-error bound assumes width-one intervals"):
        absolute_error_bound(widths_two, example6_spec.g, {i: 1 for i in range(1, 4)})
    model = full_model(running_spec, 0)
    for ghat in ({1: 3}, {0: 4, 1: 3, 2: 1}):
        with pytest.raises(ValueError, match=r"^need one constant per index in \[1, 2\]$"):
            absolute_error_bound(model, running_spec.g, ghat)


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
    est = estimate_full(full_model(running_spec, 0), running_spec.g)
    lo, hi = est.span
    gammas = {n: est.fn.evaluate(Fraction(2 * n - 1, 2)) for n in range(lo + 1, hi + 1)}   # value on (n-1, n)
    assert gammas == {1: 4, 2: 3, 3: 2, 4: 2, 5: 1}


def _value_at_reference(est, t):
    # the definition by two scans: known cells own both their ends, save the
    # reference point 0, which only region l + 1's cell owns; then any open
    # cell, then the half-open convention at open-cell bounds
    for cell in est.cells:
        if cell.tag == "known" and cell.lo <= t <= cell.hi and (t != 0 or cell.indices == (est.l + 1,)):
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


@pytest.mark.parametrize("g, n, f, observed, l, truth", [
    # a point span of region l sits at 0 beside region l + 1's span
    ((3, 1), (2, 3), ("76/97", "70/97"), [(1, 3)], 1, 1),
    # the same at l = m, where the signal is zero from D_m on
    ((3, -6, 1), (3, 3, 2), ("76/97", "70/97", "17/97"), [(2, 3, 1)], 3, 0),
])
def test_value_at_the_reference_is_the_region_right_of_it(g, n, f, observed, l, truth):
    spec = validate_spec(SignalSpec.from_columns(g=g, n=n, f=f))
    est = estimate_partial(infer_model(ObservationSet.of(observed, spec.g), l), spec.g)
    assert any(c.lo == c.hi == 0 and c.indices == (l,) for c in est.cells)
    assert est.value_at(0) == truth == truth_function(spec, l).evaluate(0)


def test_value_at_the_reference_matches_the_signal():
    rng = random.Random(3)
    checked = 0
    for _ in range(120):
        spec = random_spec(rng, m_range=(1, 6), n_range=(2, 4))
        patterns = enumerate_atlas(spec).patterns
        observed = [patterns] + [[p] for p in patterns] + [patterns[k:k + 2] for k in range(len(patterns) - 1)]
        for subset in observed:
            obs = ObservationSet.of(subset, spec.g)
            for l in range(spec.m + 1):
                try:
                    est = estimate_partial(infer_model(obs, l), spec.g)
                except AssertionError:   # the known inverted forced-span defect
                    continue
                assert est.value_at(0) == truth_function(spec, l).evaluate(0), (spec, subset, l)
                checked += 1
    assert checked > 5000


def _side_rule_cells(model, g):
    """Estimate cells by the side rule the feasible box replaced: region i is
    forced when its left end is independent or ends a chain and its right end
    is independent or starts one; chain spans take midpoint ends and
    Chebyshev-centre interiors."""
    m, l, G = model.m, model.l, model.G
    chains = model.chains.plus + model.chains.minus
    free = model.U - {i for c in chains for i in c.members}
    width_one = set(range(m + 1)) - model.U - {l}
    independent = width_one | free | {l}
    left_ok = independent | {c.members[-1] for c in chains}
    right_ok = independent | {c.members[0] for c in chains}
    cells = []
    for i in range(1, m + 1):
        if (i - 1) in left_ok and i in right_ok:
            lo, hi = G[i - 1][1], G[i][0]
            if lo > hi:   # raised, not asserted: pytest rewrites a test file's messages
                raise AssertionError(f"forced span for region {i} is inverted")
            cells.append((lo, hi, amp(g, i), "known", (i,)))

    def midpoint(i, lo, hi):
        return (lo, hi, (amp(g, i) + amp(g, i + 1)) / 2, "midpoint", (i, i + 1))

    for i in sorted(width_one | free):
        cells.append(midpoint(i, *G[i]))
    for c in chains:
        first, last = c.members[0], c.members[-1]
        lo = G[first][0]
        cells.append(midpoint(first, lo, lo + 1))
        for k in range(1, len(c.members)):
            idx = (first + k - 1, first + k, first + k + 1)
            triple = [amp(g, j) for j in idx]
            cells.append((lo + k, lo + k + 1, (min(triple) + max(triple)) / 2, "chain_interior", idx))
        cells.append(midpoint(last, G[last][1] - 1, G[last][1]))
    cells.sort(key=lambda cell: (cell[0], cell[1]))
    return cells


def _cells_or_error(build):
    try:
        return build()
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def test_cells_fill_the_box_as_the_side_rule_did():
    # the signal's own integer amplitudes, and fractional ones with
    # denominators 2-9 on the same models (inference reads only the patterns)
    rng, amp_rng = random.Random(29), random.Random(31)
    seen = {"raised": 0, "chain": 0, "point": 0}
    for _ in range(60):
        spec = random_spec(rng, m_range=(1, 6), n_range=(2, 4))
        fractional = tuple(Fraction(amp_rng.randint(-9, 9), amp_rng.randint(2, 9)) for _ in range(spec.m))
        patterns = enumerate_atlas(spec).patterns
        observed = [patterns] + [[p] for p in patterns] + [patterns[k:k + 2] for k in range(len(patterns) - 1)]
        for subset in observed:
            obs = ObservationSet.of(subset, spec.g)
            for l in range(spec.m + 1):
                model = infer_model(obs, l)
                for g in (spec.g, fractional):
                    got = _cells_or_error(lambda: [
                        (c.lo, c.hi, c.value, c.tag, c.indices)
                        for c in estimate_partial(model, g).cells
                    ])
                    want = _cells_or_error(lambda: _side_rule_cells(model, g))
                    assert got == want, (spec, g, subset, l)
                seen["raised"] += isinstance(want, str)
                seen["chain"] += not model.chains.empty
                seen["point"] += not isinstance(want, str) and any(c[0] == c[1] for c in want)
    assert all(seen.values()), seen


def _same_up_to_scale(table, other) -> bool:
    """Whether two (N, xs, D, vs) tables give the same Fractions xs/N and vs/D."""
    (N, xs, D, vs), (M, ys, E, ws) = table, other
    return (
        len(xs) == len(ys) and len(vs) == len(ws)
        and all(x * M == y * N for x, y in zip(xs, ys))
        and all(v * E == w * D for v, w in zip(vs, ws))
    )


def test_the_estimate_stores_the_integer_table_of_its_function():
    """``estimate_partial`` builds ``fn`` from ints and stores them, so the
    search rescales them instead of putting ``fn``'s Fractions on a lattice
    again; on every corpus estimate that table equals ``on_lattice`` over
    the Fractions, up to scale, and a function built by the public
    constructor computes exactly that."""
    estimates = [case.estimate for case in corpus() if case.estimate is not None]
    assert len(estimates) == 8034
    for est in estimates:
        fn = est.fn
        assert "_integers" in vars(fn)   # stored by the estimator, not computed on first use
        N, _, D, _ = fn._integers
        assert (N, D % 2) == (1, 0)   # the cells' integer bounds, and values over 2 D
        public = PiecewiseFunction(fn.breakpoints, fn.values)
        assert "_integers" not in vars(public)
        (Nf, xf), (Df, vf) = on_lattice(fn.breakpoints), on_lattice(fn.values)
        assert public._integers == (Nf, tuple(xf), Df, tuple(vf))
        assert _same_up_to_scale(fn._integers, public._integers)
        assert public == fn
