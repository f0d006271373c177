"""Locating discontinuities from observed pattern sets."""

import random

import pytest

from pcsamp import (
    Chain,
    InconsistentObservations,
    ObservationSet,
    SignalSpec,
    chain_analysis,
    cumulative_values,
    enumerate_atlas,
    estimate_partial,
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


def test_cumulative_values_match_slice_sums():
    """Prefix-count differences against the slice-sum definition, on random
    small count tables, consistent or not, for every (l, i)."""
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
        obs = ObservationSet.of(table, [1] * m)
        for l in range(m + 1):
            for i in range(m + 1):
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
    assert returned > 1000 and raised > 1000


def test_infer_full_atlas_running(running_spec):
    model = infer_model(_full_obs(running_spec), 0)
    assert model.C == (0, 2, 5)
    assert model.U == frozenset()
    assert model.G == ((0, 0), (1, 2), (4, 5))
    truth = translate(running_spec, 0).D
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
    assert len(model.chains.plus) == 1
    chain = model.chains.plus[0]
    assert chain.anchor == 1
    assert chain.length == 1
    assert chain.members == (1, 2)
    assert chain.b == (5 - 2) - 1
    assert model.chains.minus == ()
    assert model.chains.free == frozenset()


def test_chain_mirror_from_single_pattern():
    # the reversed signal observed as (1, 3) from the right reference
    obs = ObservationSet.of([(1, 3)], [2, 4])
    model = infer_model(obs, 2)
    assert model.U == frozenset({0, 1})
    assert model.G[1] == (-4, -2)
    assert model.G[0] == (-5, -3)
    assert len(model.chains.minus) == 1
    chain = model.chains.minus[0]
    assert chain.anchor == 1
    assert chain.length == 1
    assert chain.members == (0, 1)
    assert chain.b == 2


def test_full_atlas_never_chains(running_spec):
    for l in range(running_spec.m + 1):
        model = infer_model(_full_obs(running_spec), l)
        assert model.U == frozenset()
        assert model.chains.empty
        assert model.chains.free == frozenset()


def test_example6_with_big_eta2_has_no_chains(example6_spec):
    # eta_2 = 3 > 1 everywhere, so the width-two run stays uncoupled
    obs = ObservationSet.of([(3, 3, 2), (3, 3, 1)], example6_spec.g)
    model = infer_model(obs, 0)
    assert model.chains.empty
    assert model.chains.free == frozenset({1, 2})


def test_chain_analysis_direct_call():
    obs = ObservationSet.of([(3, 1)], [4, 2])
    structure = chain_analysis(obs, 0, frozenset({1, 2}), ((0, 0), (2, 4), (3, 5)))
    assert structure.plus[0].members == (1, 2)


def test_round_trip_strict_containment_random():
    rng = random.Random(5)
    for _ in range(15):
        spec = random_spec(rng, m_range=(1, 6))
        obs = _full_obs(spec)
        for l in range(spec.m + 1):
            model = infer_model(obs, l)
            assert model.U == frozenset()
            truth = translate(spec, l).D
            for i in range(spec.m + 1):
                if i == l:
                    continue
                lo, hi = model.G[i]
                assert hi - lo == 1
                assert lo < truth[i] < hi


def test_partial_subsets_contain_truth_and_never_widen():
    rng = random.Random(17)
    for _ in range(12):
        spec = random_spec(rng, m_range=(2, 6))
        atlas = enumerate_atlas(spec)
        patterns = list(atlas.patterns)
        rng.shuffle(patterns)
        l = rng.randint(0, spec.m)
        truth = translate(spec, l).D
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
            ordered = sorted(model.Ucomp)
            for a, b in zip(ordered, ordered[1:]):
                assert model.G[a][1] <= model.G[b][0]


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
        m = spec.m
        for l in range(m + 1):
            a = infer_model(obs, l)
            b = infer_model(mirrored_obs, m - l)
            for i in range(m + 1):
                assert a.G[i] == (-b.G[m - i][1], -b.G[m - i][0])
            assert {m - i for i in a.U} == set(b.U)


def _reflect_chain(c, m):
    return Chain(anchor=m - c.anchor, length=c.length, members=tuple(m - i for i in reversed(c.members)), b=c.b)


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
        a = infer_model(obs, l).chains
        b = infer_model(mirrored_obs, m - l).chains
        assert b.plus == tuple(_reflect_chain(c, m) for c in a.minus)
        assert b.minus == tuple(_reflect_chain(c, m) for c in a.plus)
        assert b.free == {m - i for i in a.free}
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


def test_chain_with_a_width_one_member_is_inconsistent():
    # regions 2 and 3 always hold one sample: members 1, 2, 3 right of l = 0
    right = ObservationSet.of([(3, 1, 1)], [4, 2, 1])
    G = ((0, 0), (2, 4), (3, 5), (4, 6))
    with pytest.raises(InconsistentObservations, match=r"\(1, 2, 3\)"):
        chain_analysis(right, 0, frozenset({1, 2}), G)
    # the mirror image: members 0, 1, 2 left of l = 3
    left = ObservationSet.of([(1, 1, 3)], [1, 2, 4])
    G = ((-6, -4), (-5, -3), (-4, -2), (0, 0))
    with pytest.raises(InconsistentObservations, match=r"\(0, 1, 2\)"):
        chain_analysis(left, 3, frozenset({1, 2}), G)
