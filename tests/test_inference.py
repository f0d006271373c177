"""Locating discontinuities from observed pattern sets."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from conftest import wide_spec

from pcsamp import (
    InconsistentObservations,
    ObservationSet,
    SamplingPattern,
    SignalSpec,
    Zone,
    chain_analysis,
    cumulative_values,
    enumerate_atlas,
    estimate_partial,
    feasible_box,
    infer_model,
    random_spec,
    translate,
    validate_spec,
)


def _full_obs(spec):
    return ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)


def test_cumulative_values_running(running_spec):
    obs = _full_obs(running_spec)
    assert cumulative_values(obs, 0, 1) == {1, 2}
    assert cumulative_values(obs, 0, 2) == {4, 5}   # sums 5, 4, 4


def test_cumulative_values_single(example6_spec):
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    assert cumulative_values(obs, 0, 1) == {3}


def test_cumulative_values_rejects_spread():
    obs = ObservationSet.of([(2, 3), (4, 3)], [4, 2])
    with pytest.raises(InconsistentObservations):
        cumulative_values(obs, 0, 1)


def _check_against_slice_sums(obs) -> tuple[int, int]:
    """``cumulative_values`` at every (l, i) against the slice-sum
    definition: the same values, or the same InconsistentObservations
    message.  Returns how many calls returned and how many raised."""
    returned = raised = 0
    for l in range(obs.m + 1):
        for i in range(obs.m + 1):
            if i == l:
                continue
            lo_r, hi_r = (l + 1, i) if i > l else (i + 1, l)
            vals = {sum(p.eta[lo_r - 1:hi_r]) for p in obs.patterns}
            if len(vals) > 2 or max(vals) - min(vals) > 1:
                message = (
                    f"cumulative counts over regions {lo_r}..{hi_r} take values {sorted(vals)}; "
                    "a single signal allows only one value or two consecutive ones"
                )
                with pytest.raises(InconsistentObservations) as info:
                    cumulative_values(obs, l, i)
                assert str(info.value) == message
                raised += 1
            else:
                assert cumulative_values(obs, l, i) == vals
                returned += 1
    return returned, raised


def test_cumulative_values_match_slice_sums():
    """Level differences against the slice-sum definition for every (l, i):
    on random small count tables, consistent or not, and, with masks of
    more than one machine word, on full atlases at m = 70..96 and on a
    mixture of two signals' atlases at m = 80."""
    rng = random.Random(23)
    returned = raised = 0
    for _ in range(400):
        m = rng.randint(1, 6)
        n = [rng.randint(2, 4) for _ in range(m)]
        loose = rng.random() < 0.3   # counts anywhere in 1..5, mostly inconsistent
        table = [
            [rng.randint(1, 5) if loose else rng.choice((k - 1, k)) for k in n]
            for _ in range(rng.randint(1, 6))
        ]
        counts = _check_against_slice_sums(ObservationSet.of(table, [1] * m))
        returned += counts[0]
        raised += counts[1]
    assert returned > 1000 and raised > 1000

    for m in (70, 83, 96):
        obs = _full_obs(wide_spec(rng, m))
        assert len(obs.patterns) == m + 1
        assert _check_against_slice_sums(obs) == (m * (m + 1), 0)
    first, second = (enumerate_atlas(wide_spec(rng, 80)).patterns for _ in range(2))
    obs = ObservationSet.of(rng.sample(first, 60) + rng.sample(second, 30), [1] * 80)
    returned, raised = _check_against_slice_sums(obs)
    assert returned > 100 and raised > 1000


def test_inconsistent_set_raises_at_every_reference():
    """Each count that involves l = 1 takes one value or two consecutive
    ones, but over regions 1..2 the patterns count 4 and 6: no signal
    shows both, whichever discontinuity is the reference."""
    obs = ObservationSet.of([(3, 1), (4, 2)], (4, 2))
    message = re.escape("cumulative counts over regions 1..2 take values [4, 6]")
    for l in range(3):
        with pytest.raises(InconsistentObservations, match=message):
            infer_model(obs, l)


def _pairwise_consistent(patterns) -> bool:
    """Every pair of patterns p, q: S_p - S_q, over the prefix counts,
    ranges over at most 1."""
    prefixes = [list(accumulate(p.eta, initial=0)) for p in patterns]
    for a, b in combinations(prefixes, 2):
        gaps = [x - y for x, y in zip(a, b)]
        if max(gaps) - min(gaps) > 1:
            return False
    return True


def _intervals_by_definition(obs, l):
    """G at reference l from the slice sums: c the largest count between i
    and l, width one when two values are seen, two when one is."""
    G = []
    for i in range(obs.m + 1):
        if i == l:
            G.append((0, 0))
            continue
        lo_r, hi_r = (l + 1, i) if i > l else (i + 1, l)
        vals = {sum(p.eta[lo_r - 1:hi_r]) for p in obs.patterns}
        lo, hi = max(vals) - 1, max(vals) + (len(vals) == 1)
        G.append((lo, hi) if i > l else (-hi, -lo))
    return tuple(G)


def test_verdict_is_the_pairwise_rule_at_every_reference():
    """Mixtures of two signals' atlas patterns: a set the pairwise rule
    accepts gives the slice-sum intervals at every reference, and any other
    set raises at every reference, naming two regions whose counts spread
    by two or more."""
    rng = random.Random(41)
    verdicts = Counter()
    for _ in range(500):
        m = rng.randint(2, 8)
        first, second = (enumerate_atlas(random_spec(rng, m_range=(m, m), n_range=(2, 3))).patterns
                         for _ in range(2))
        observed = rng.sample(first, rng.randint(1, min(4, len(first))))
        if rng.random() < 0.8:
            observed += rng.sample(second, rng.randint(1, 3))
        obs = ObservationSet.of(observed, [1] * m)
        consistent = _pairwise_consistent(obs.patterns)
        verdicts[consistent] += 1
        for l in range(m + 1):
            if consistent:
                assert infer_model(obs, l).G == _intervals_by_definition(obs, l), (observed, l)
                continue
            with pytest.raises(InconsistentObservations) as info:
                infer_model(obs, l)
            lo_r, hi_r, shown = re.fullmatch(
                r"cumulative counts over regions (\d+)\.\.(\d+) take values \[([\d, ]+)\]; "
                r"a single signal allows only one value or two consecutive ones",
                str(info.value),
            ).groups()
            vals = sorted({sum(p.eta[int(lo_r) - 1:int(hi_r)]) for p in obs.patterns})
            assert shown == ", ".join(map(str, vals)) and vals[-1] - vals[0] > 1, (observed, l)
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def test_observation_counts_must_be_ints():
    """A float or bool count is rejected, not truncated by int()."""
    for table, bad in (([(2.7, 3), (True, 3)], (2.7, 3)), ([(2, 3), (True, 3)], (True, 3))):
        with pytest.raises(ValueError, match=re.escape(f"pattern {bad} has a count that is not an int")):
            ObservationSet.of(table, [4, 2])
    assert [p.eta for p in ObservationSet.of([[2, 3], (3, 2)], [4, 2]).patterns] == [(2, 3), (3, 2)]


def test_pattern_counts_must_be_ints_however_the_set_is_built():
    """SamplingPattern instances passed to ``of`` and a directly built set
    are checked too, and the patterns come out distinct and sorted."""
    with pytest.raises(ValueError, match=re.escape("pattern (2.5, 3) has a count that is not an int")):
        ObservationSet.of([SamplingPattern((2.5, 3))], [4, 2])
    with pytest.raises(ValueError, match=re.escape("pattern (True, 3) has a count that is not an int")):
        ObservationSet(patterns=(SamplingPattern((True, 3)),), amplitudes=(4, 2))
    direct = ObservationSet(patterns=(SamplingPattern((3, 2)), SamplingPattern((2, 3)), SamplingPattern((3, 2))),
                            amplitudes=(Fraction(4), Fraction(2)))
    assert direct == ObservationSet.of([(2, 3), [3, 2]], [4, 2])
    assert [p.eta for p in direct.patterns] == [(2, 3), (3, 2)]


def test_observation_set_without_regions():
    """m = 0: patterns are empty, so there is no count to check."""
    obs = ObservationSet.of([()], [])
    assert obs.m == 0 and infer_model(obs, 0).G == ((0, 0),)


def test_observation_sets_and_indices_are_checked(running_spec):
    for patterns, message in (
        ([], "at least one observed pattern is required"),
        ([(2, 3, 1)], "pattern (2, 3, 1) has 3 regions, expected 2"),
        ([(0, 3)], "pattern (0, 3) has a non-positive count; every region holds a sample"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ObservationSet.of(patterns, [4, 2])
    obs = _full_obs(running_spec)
    for l, i in ((0, 3), (3, 0), (-1, 1), (1, -1)):
        with pytest.raises(IndexError, match=rf"^indices i={i}, l={l} outside 0\.\.2$"):
            cumulative_values(obs, l, i)
    with pytest.raises(ValueError, match="^the reference discontinuity has no cumulative count$"):
        cumulative_values(obs, 1, 1)
    for l in (-1, 3):
        with pytest.raises(IndexError, match=rf"^reference index {l} outside 0\.\.2$"):
            infer_model(obs, l)


def test_infer_full_atlas_running(running_spec):
    model = infer_model(_full_obs(running_spec), 0)
    assert model.C == (0, 2, 5)
    assert model.U == frozenset()
    assert model.G == ((0, 0), (1, 2), (4, 5))
    truth = translate(running_spec, 0)
    assert model.G[1][0] < truth[1] < model.G[1][1]
    assert model.G[2][0] < truth[2] < model.G[2][1]


def test_infer_example6_widths(example6_spec):
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    left = infer_model(obs, 0)
    assert [left.width(i) for i in (1, 2, 3)] == [2, 2, 1]
    assert left.U == frozenset({1, 2})
    right = infer_model(obs, 3)
    assert [right.width(i) for i in (0, 1, 2)] == [1, 1, 1]
    assert right.U == frozenset()


def test_chain_from_single_pattern():
    obs = ObservationSet.of([(3, 1)], [4, 2])
    model = infer_model(obs, 0)
    assert model.C == (0, 3, 4)
    assert model.U == frozenset({1, 2})
    assert model.G == ((0, 0), (2, 4), (3, 5))
    assert model.chains.plus == (Zone(regions=(1, 2, 3), lo=2, hi=5),)
    assert model.chains.minus == ()
    assert feasible_box(model).zones == model.chains.plus


def test_chain_mirror_from_single_pattern():
    # the reversed signal observed as (1, 3) from the right reference
    obs = ObservationSet.of([(1, 3)], [2, 4])
    model = infer_model(obs, 2)
    assert model.U == frozenset({0, 1})
    assert model.G[1] == (-4, -2)
    assert model.G[0] == (-5, -3)
    assert model.chains.minus == (Zone(regions=(0, 1, 2), lo=-5, hi=-2),)
    assert model.chains.plus == ()


def test_full_atlas_never_chains(running_spec):
    for l in range(running_spec.m + 1):
        model = infer_model(_full_obs(running_spec), l)
        assert model.U == frozenset()
        assert model.chains.empty
        assert not any(z.coupled for z in feasible_box(model).zones)


def test_example6_with_big_eta2_has_no_chains(example6_spec):
    # eta_2 = 3 > 1 everywhere, so the width-two run stays uncoupled
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    model = infer_model(obs, 0)
    assert model.chains.empty
    assert feasible_box(model).zones == (
        Zone(regions=(1, 2), lo=2, hi=4), Zone(regions=(2, 3), lo=5, hi=7), Zone(regions=(3, 4), lo=7, hi=8),
    )


def test_box_stretches_keep_degenerate_points(example6_spec):
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    box = feasible_box(infer_model(obs, 0))
    assert box.G == ((0, 0), (2, 4), (5, 7), (7, 8))
    assert [z for z in box.stretches if not z.members] == [
        Zone(regions=(1,), lo=0, hi=2), Zone(regions=(2,), lo=4, hi=5), Zone(regions=(3,), lo=7, hi=7),
    ]


def test_zone_cells_list_the_regions_each_cell_meets():
    # a forced span and an isolated interval are one cell each; a coupled run
    # of k members holds k + 1 unit cells, two regions met at either end
    assert Zone((2,), 4, 5).cells == ((4, 5, (2,)),)
    assert Zone((2,), 7, 7).cells == ((7, 7, (2,)),)
    assert Zone((1, 2), 1, 3).cells == ((1, 3, (1, 2)),)
    assert Zone((1, 2, 3, 4), 2, 6).cells == (
        (2, 3, (1, 2)), (3, 4, (1, 2, 3)), (4, 5, (2, 3, 4)), (5, 6, (3, 4)),
    )
    with pytest.raises(ValueError, match=r"^coupled zone \(1, 2\) on \(1, 3\) needs one unit cell per region$"):
        Zone((1, 2, 3), 1, 3).cells


def test_box_stretches_raise_on_the_inverted_forced_span():
    # the known defect: a run anchored at the reference is not coupled, so
    # G_1 = (0, 2) and G_2 = (1, 3) overlap and region 2's span inverts
    box = feasible_box(infer_model(ObservationSet.of([[1, 1]], [-2, 4]), 0))
    with pytest.raises(AssertionError, match="forced span for region 2 is inverted"):
        box.stretches


def test_box_stretches_tile_the_span_once():
    # sorted, adjacent from G[0].lo to G[m].hi, every zone once, one forced
    # span per region no chain holds inside; the estimate's cells follow
    # the same order
    rng = random.Random(47)
    seen = {"chain": 0, "point": 0, "inverted": 0}
    for _ in range(150):
        spec = random_spec(rng, m_range=(1, 7), n_range=(2, 3))
        patterns = enumerate_atlas(spec).patterns
        k = rng.randrange(len(patterns))
        for observed in (patterns, [patterns[k]], patterns[k:k + 2]):
            model = infer_model(ObservationSet.of(observed, spec.g), rng.randint(0, spec.m))
            box = feasible_box(model)
            try:
                stretches = box.stretches
            except AssertionError as exc:   # the known inverted forced-span defect
                assert "is inverted" in str(exc)
                seen["inverted"] += 1
                continue
            assert list(stretches) == sorted(stretches, key=lambda z: (z.lo, z.hi))
            ends = [box.G[0][0], *(x for z in stretches for x in (z.lo, z.hi)), box.G[-1][1]]
            assert ends[::2] == ends[1::2]
            assert [z for z in stretches if z.members] == list(box.zones)
            inside = {r for z in box.zones for r in range(z.members[0] + 1, z.members[-1] + 1)}
            assert [z.regions for z in stretches if not z.members] == [
                (i,) for i in range(1, box.m + 1) if i not in inside
            ]
            cells = estimate_partial(model, spec.g).cells
            assert list(cells) == sorted(cells, key=lambda c: (c.lo, c.hi))
            seen["chain"] += any(z.coupled for z in box.zones)
            seen["point"] += any(z.lo == z.hi for z in stretches)
    assert all(seen.values()), seen


def test_chain_analysis_direct_call():
    structure = chain_analysis(((0, 0), (2, 4), (3, 5)))
    assert structure.plus == (Zone(regions=(1, 2, 3), lo=2, hi=5),)
    assert structure.minus == ()
    # the mirror image, left of the reference
    assert chain_analysis(((-5, -3), (-4, -2), (0, 0))).minus == (Zone(regions=(0, 1, 2), lo=-5, hi=-2),)
    # a run whose span ends at the reference is not a chain
    assert chain_analysis(((0, 0), (0, 2), (1, 3))).empty


def _always_one_chains(patterns, m, l):
    """The chain rule stated on the patterns: (plus, minus, anchored).

    Regions a+1..b (a < b) that every pattern fills with one sample form a
    maximal run with members a..b.  It is a chain when it lies wholly on
    one side of l (a > l or b < l) and its two members nearest l are width
    two; then every member is width two.  A run that reaches l (a <= l <= b)
    is anchored on a side where its two members nearest l exist and are
    width two; ``anchored`` lists those (side, members)."""
    def interval(i):
        lo_r, hi_r = (l + 1, i) if i > l else (i + 1, l)
        vals = {sum(p[lo_r - 1:hi_r]) for p in patterns}
        c = max(vals)
        lo, hi = c - 1, c + (len(vals) == 1)
        return (-hi, -lo) if i < l else (lo, hi)

    def wide(i):
        lo, hi = interval(i)
        return hi - lo == 2

    one = [all(p[r] == 1 for p in patterns) for r in range(m)]   # one[r]: region r + 1
    plus, minus, anchored = [], [], []
    r = 0
    while r < m:
        if not one[r]:
            r += 1
            continue
        a = r
        while r < m and one[r]:
            r += 1
        b = r   # regions a+1..b, members a..b
        if a > l or b < l:
            near = (a, a + 1) if a > l else (b - 1, b)
            if wide(near[0]) and wide(near[1]):
                assert all(wide(i) for i in range(a, b + 1))
                zone = Zone(regions=tuple(range(a, b + 2)), lo=interval(a)[0], hi=interval(b)[1])
                (plus if a > l else minus).append(zone)
        else:
            if b >= l + 2 and wide(l + 1) and wide(l + 2):
                anchored.append(("plus", (l + 1, l + 2)))
            if a <= l - 2 and wide(l - 2) and wide(l - 1):
                anchored.append(("minus", (l - 2, l - 1)))
    return tuple(plus), tuple(reversed(minus)), anchored


def test_chains_match_the_always_one_rule():
    """Chains read from overlapping intervals equal the rule stated on the
    patterns, and a run anchored at the reference occurs exactly where the
    estimate meets the inverted forced span."""
    rng = random.Random(61)
    seen = {"models": 0, "chains": 0, "anchored": 0}
    for _ in range(300):
        spec = random_spec(rng, m_range=(2, 7), n_range=(2, 3))
        patterns = list(enumerate_atlas(spec).patterns)
        for _ in range(3):
            subset = rng.sample(patterns, rng.randint(1, min(3, len(patterns))))
            obs = ObservationSet.of(subset, spec.g)
            etas = [p.eta for p in obs.patterns]
            for l in range(spec.m + 1):
                model = infer_model(obs, l)
                plus, minus, anchored = _always_one_chains(etas, spec.m, l)
                assert (model.chains.plus, model.chains.minus) == (plus, minus)
                try:
                    estimate_partial(model, spec.g)
                    raised = False
                except AssertionError as exc:
                    assert str(exc).endswith("is inverted")
                    raised = True
                assert raised == bool(anchored), (etas, l)
                seen["models"] += 1
                seen["chains"] += len(plus) + len(minus)
                seen["anchored"] += raised
    assert seen["chains"] > 1000 and seen["anchored"] > 60, seen


def test_partial_subsets_contain_truth_and_never_widen():
    rng = random.Random(17)
    for _ in range(12):
        spec = random_spec(rng, m_range=(2, 6))
        atlas = enumerate_atlas(spec)
        patterns = list(atlas.patterns)
        rng.shuffle(patterns)
        l = rng.randint(0, spec.m)
        truth = translate(spec, l)
        previous = None
        for count in range(1, len(patterns) + 1):
            obs = ObservationSet.of(patterns[:count], spec.g)
            model = infer_model(obs, l)
            for i in range(spec.m + 1):
                if i == l:
                    continue
                lo, hi = model.G[i]
                assert lo < truth[i] < hi
                if previous is not None:
                    plo, phi = previous.G[i]
                    assert plo <= lo and hi <= phi   # intervals only narrow
            previous = model
        assert previous.U == frozenset()
        assert all(previous.width(i) == 1 for i in range(spec.m + 1) if i != l)


def test_width_one_intervals_are_disjoint():
    rng = random.Random(29)
    for _ in range(10):
        spec = random_spec(rng, m_range=(2, 6))
        obs = _full_obs(spec)
        for l in range(spec.m + 1):
            model = infer_model(obs, l)
            ordered = sorted(set(range(spec.m + 1)) - model.U - {l})
            for a, b in zip(ordered, ordered[1:]):
                assert model.G[a][1] <= model.G[b][0]


def _assert_models_mirror(obs, mirrored_obs, m, l):
    """The model at l and its mirror at m - l agree under i -> m - i, with
    every interval reflected; returns the model at l."""
    a = infer_model(obs, l)
    b = infer_model(mirrored_obs, m - l)
    for i in range(m + 1):
        assert a.G[i] == (-b.G[m - i][1], -b.G[m - i][0])
        assert a.C[i] == b.C[m - i]
    assert {m - i for i in a.U} == set(b.U)
    return a


def test_mirrored_observations_mirror_the_model():
    rng = random.Random(41)
    for _ in range(10):
        spec = random_spec(rng, m_range=(2, 5))
        mirror = validate_spec(
            SignalSpec.from_columns(
                g=tuple(reversed(spec.g)), n=tuple(reversed(spec.n)), f=tuple(reversed(spec.f))
            )
        )
        atlas = enumerate_atlas(spec)
        subset = [p for k, p in enumerate(atlas.patterns) if k % 2 == 0]
        obs = ObservationSet.of(subset, spec.g)
        mirrored_obs = ObservationSet.of(
            [tuple(reversed(p.eta)) for p in obs.patterns], mirror.g
        )
        for l in range(spec.m + 1):
            _assert_models_mirror(obs, mirrored_obs, spec.m, l)
    # single patterns and adjacent pairs leave width-two intervals, and with
    # l at either end they fall on both sides of the reference
    sides = set()
    for spec, _, obs, mirrored_obs, l in _chain_shaped_cases(47, 30):
        model = _assert_models_mirror(obs, mirrored_obs, spec.m, l)
        sides |= {i < l for i in model.U}
    assert sides == {True, False}


def _reflect_chain(zone, m):
    return Zone(regions=tuple(m + 1 - i for i in reversed(zone.regions)), lo=-zone.hi, hi=-zone.lo)


def _chain_shaped_cases(seed, count):
    """Signals with n in {2, 3}, each seen through one atlas pattern or an
    adjacent pair, with the reference at either end, plus their mirrors."""
    rng = random.Random(seed)
    for _ in range(count):
        spec = random_spec(rng, m_range=(2, 8), n_range=(2, 3))
        m = spec.m
        mirror_g = tuple(reversed(spec.g))
        patterns = list(enumerate_atlas(spec).patterns)
        subsets = [[p] for p in patterns] + [list(pair) for pair in zip(patterns, patterns[1:])]
        for subset in subsets:
            obs = ObservationSet.of(subset, spec.g)
            mirrored_obs = ObservationSet.of([tuple(reversed(p.eta)) for p in subset], mirror_g)
            for l in (0, m):
                yield spec, mirror_g, obs, mirrored_obs, l


def test_chains_reflect_between_sides():
    seen = 0
    for spec, _, obs, mirrored_obs, l in _chain_shaped_cases(53, 40):
        m = spec.m
        model = infer_model(obs, l)
        a = model.chains
        b = infer_model(mirrored_obs, m - l).chains
        assert b.plus == tuple(_reflect_chain(c, m) for c in a.minus)
        assert b.minus == tuple(_reflect_chain(c, m) for c in a.plus)
        # one description per chain: the box's coupled zones are the chains themselves
        coupled = [z for z in feasible_box(model).zones if z.coupled]
        assert sorted(coupled, key=lambda z: z.lo) == sorted(a.plus + a.minus, key=lambda z: z.lo)
        seen += len(a.plus) + len(a.minus)
    assert seen > 100


def test_partial_estimates_reflect_between_sides():
    def outcome(model, g, reflect):
        try:
            cells = estimate_partial(model, g).cells
        except Exception as exc:
            return type(exc)
        m = model.m
        if reflect:
            return [
                (-c.hi, -c.lo, c.value, c.tag, tuple(sorted(m + 1 - j for j in c.indices)))
                for c in reversed(cells)
            ]
        return [(c.lo, c.hi, c.value, c.tag, c.indices) for c in cells]

    for spec, mirror_g, obs, mirrored_obs, l in _chain_shaped_cases(59, 25):
        a = outcome(infer_model(obs, l), spec.g, reflect=False)
        b = outcome(infer_model(mirrored_obs, spec.m - l), mirror_g, reflect=True)
        assert a == b
