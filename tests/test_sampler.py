"""Direct counting, the closed-form count, and the pattern atlas."""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import delta_chain_reference, wide_spec

from pcsamp import (
    GenericityViolation,
    SignalSpec,
    count_direct,
    cumulative_count,
    delta_chain,
    enumerate_atlas,
    kappa_d,
    random_spec,
    validate_spec,
)


def test_count_direct_examples(running_spec):
    # samples 0.1, 1.1 in [0, 7/4); 2.1, 3.1, 4.1 in [7/4, 17/4)
    assert count_direct(running_spec, Fraction(1, 10)).eta == (2, 3)
    # 4.3 >= 17/4 drops out of region 2
    assert count_direct(running_spec, Fraction(3, 10)).eta == (2, 2)
    # 1.8 >= 7/4 drops out of region 1
    assert count_direct(running_spec, Fraction(4, 5)).eta == (1, 3)


@pytest.mark.parametrize(
    "call",
    [count_direct, delta_chain, lambda spec, delta: cumulative_count(spec, 1, 1, delta)],
    ids=["count_direct", "delta_chain", "cumulative_count"],
)
def test_count_direct_rejects_offsets_outside_unit(running_spec, call):
    for delta in (Fraction(5, 4), 1, Fraction(-1, 4)):
        with pytest.raises(ValueError, match=r"grid offset must lie in \[0, 1\)"):
            call(running_spec, delta)
    for delta in (0.3, True):
        with pytest.raises(TypeError):
            call(running_spec, delta)
    assert call(running_spec, 0) == call(running_spec, Fraction(0))
    assert call(running_spec, "3/10") == call(running_spec, Fraction(3, 10))
    # a subclass is a Fraction, but not of type Fraction, so it goes through as_rational
    assert call(running_spec, _SubFraction(3, 10)) == call(running_spec, Fraction(3, 10))


class _SubFraction(Fraction):
    """A Fraction subclass: its type is not Fraction, but it is one."""


def test_fraction_slots_hold_the_reduced_ratio():
    # the sampler reads an offset's integers from these two private slots
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    for value in (Fraction(3, 10), Fraction(-7, 4), Fraction(0), Fraction(12, 4), _SubFraction(3, 10)):
        assert (value._numerator, value._denominator) == value.as_integer_ratio()


def test_count_direct_huge_region_is_immediate():
    spec = validate_spec(SignalSpec.from_columns(g=[4, 2], n=[10**9, 3], f=["1/4", "1/2"]))
    # samples 0.1 .. 10**9 - 0.9 lie below P_1 = 10**9 - 1/4; 10**9 + 0.1 .. +2.1 below P_2
    assert count_direct(spec, Fraction(1, 10)).eta == (10**9, 3)
    # 10**9 - 0.2 >= P_1 moves one sample out of region 1; 10**9 + 2.8 >= P_2 drops out
    assert count_direct(spec, Fraction(4, 5)).eta == (10**9 - 1, 3)
    assert count_direct(spec, Fraction(4, 5)) == enumerate_atlas(spec).cells[-1].pattern


def test_kappa_d_examples(running_spec):
    assert kappa_d(running_spec, 1, 1) == (0, 5)   # 1/4 + 1/2 < 1
    assert kappa_d(running_spec, 1, 0) == (0, 2)
    spec = validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2, 2], f=["3/5", "3/5"]))
    kappa, d = kappa_d(spec, 1, 1)                  # 6/5 >= 1 carries
    assert kappa == 1
    assert d == 2 + 2 - 1


def test_kappa_d_bounds(running_spec):
    with pytest.raises(IndexError):
        kappa_d(running_spec, 1, 2)
    with pytest.raises(IndexError):
        kappa_d(running_spec, 0, 0)


@pytest.mark.parametrize("i,span", [(0, 0), (1, -1), (1, 2), (2, 1)])
def test_cumulative_count_bounds(running_spec, i, span):
    with pytest.raises(IndexError, match=rf"^region run i={i}, K={span} outside 1\.\.2$"):
        cumulative_count(running_spec, i, span, Fraction(1, 10))


def test_cumulative_count_examples(running_spec):
    assert cumulative_count(running_spec, 1, 1, Fraction(1, 10)) == 5   # below 1/4
    assert cumulative_count(running_spec, 1, 1, Fraction(3, 10)) == 4
    # a tie with the threshold takes the lower branch
    assert cumulative_count(running_spec, 1, 0, Fraction(3, 4)) == 1


def test_atlas_running(running_spec):
    cells = enumerate_atlas(running_spec).cells
    assert [(c.delta_lo, c.delta_hi, c.pattern.eta) for c in cells] == [
        (0, Fraction(1, 4), (2, 3)),
        (Fraction(1, 4), Fraction(3, 4), (2, 2)),
        (Fraction(3, 4), 1, (1, 3)),
    ]


def test_atlas_single_region():
    spec = validate_spec(SignalSpec.from_columns(g=[5], n=[3], f=["1/2"]))
    cells = enumerate_atlas(spec).cells
    assert [(c.delta_lo, c.delta_hi, c.pattern.eta) for c in cells] == [
        (0, Fraction(1, 2), (3,)),
        (Fraction(1, 2), 1, (2,)),
    ]


def test_atlas_cardinality_and_midpoints_random():
    rng = random.Random(11)
    specs = [random_spec(rng) for _ in range(40)]
    specs += [wide_spec(rng, m) for m in (*range(1, 96, 5), 96)]   # up to the cli workload's m = 96
    for spec in specs:
        atlas = enumerate_atlas(spec)
        assert len(atlas.cells) == spec.m + 1
        assert len(set(atlas.patterns)) == spec.m + 1
        assert atlas.cells[0].delta_lo == 0
        assert atlas.cells[-1].delta_hi == 1
        for a, b in zip(atlas.cells, atlas.cells[1:]):
            assert a.delta_hi == b.delta_lo
            assert a.pattern != b.pattern
        for cell in atlas.cells:
            mid = (cell.delta_lo + cell.delta_hi) / 2
            assert count_direct(spec, mid) == cell.pattern


def test_delta_chain_examples(running_spec):
    offsets = delta_chain(running_spec, Fraction(1, 10))
    # first sample at or after 7/4 is 2.1, so the second offset is 7/20
    assert offsets == [Fraction(1, 10), Fraction(7, 20)]
    assert delta_chain(running_spec, 0)[0] == 0


def test_delta_chain_matches_direct_placement():
    rng = random.Random(3)
    for _ in range(20):
        spec = random_spec(rng, m_range=(2, 6))
        delta1 = Fraction(rng.randint(0, 100), 101)
        offsets = delta_chain(spec, delta1)
        points = spec.breakpoints
        for i in range(1, spec.m):
            # offset i+1 is the gap from P_i to the first sample at or after it
            k = 0
            while delta1 + k < points[i]:
                k += 1
            assert offsets[i] == delta1 + k - points[i]


def _offset_over(rng, q):
    """A random offset in [0, 1) whose reduced denominator is exactly q."""
    while True:
        p = rng.randrange(q)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def test_delta_chain_matches_fraction_recurrence():
    rng = random.Random(29)
    for _ in range(60):
        spec = random_spec(rng, m_range=(1, 12))
        L = spec.lattice.L
        # denominator 1, multiples of L, and coprime to L
        denominators = (1, L, 4 * L, 7, 1000)
        assert math.gcd(7, L) == math.gcd(1000, L) == 1
        for delta in (_offset_over(rng, q) for q in denominators):
            expected = delta_chain_reference(spec, delta)
            for given in (delta, str(delta)):
                offsets = delta_chain(spec, given)
                assert offsets == expected
                assert len(offsets) == spec.m
                assert all(type(o) is Fraction for o in offsets)


def _built_rows(spec):
    """Starting regions whose run-table row has been built."""
    return [i for i, row in enumerate(spec.run_table[1]) if row is not None]


def test_run_table_entries_equal_their_definition():
    rng = random.Random(37)
    specs = [random_spec(rng) for _ in range(40)]
    specs += [wide_spec(rng, m) for m in (*range(1, 96, 5), 96)]   # up to the cli workload's m = 96
    for spec in specs:
        L, rows = spec.run_table
        for i in range(1, spec.m + 1):
            f_sum, n_sum = Fraction(0), 0
            for span in range(spec.m - i + 1):
                f_sum += spec.f[i + span - 1]
                n_sum += spec.n[i + span - 1]
                kappa = math.floor(f_sum)
                assert kappa_d(spec, i, span) == (kappa, n_sum - kappa)
                assert rows[i][span] == (n_sum - kappa, L * (1 + kappa - f_sum))
            assert all(type(x) is int for entry in rows[i] for x in entry)


def test_cumulative_count_on_fresh_and_filled_tables():
    rng = random.Random(41)
    for _ in range(30):
        spec = random_spec(rng, m_range=(1, 6))
        for j in range(0, 101, 7):
            delta1 = Fraction(j, 101)
            eta = count_direct(spec, delta1).eta
            offsets = delta_chain(spec, delta1)
            for i in range(1, spec.m + 1):
                for span in range(spec.m - i + 1):
                    direct = sum(eta[i - 1:i + span])
                    fresh = replace(spec)   # same signal, empty table
                    assert cumulative_count(fresh, i, span, offsets[i - 1]) == direct
                    assert _built_rows(fresh) == [i]
                    assert cumulative_count(spec, i, span, offsets[i - 1]) == direct


@pytest.mark.parametrize(
    "columns",
    [
        None,   # m = 5000 regions, a prefix-residue signal over the prime 5003
        {"g": [4, 2], "n": [10**9, 3], "f": ["1/4", "1/2"]},   # one huge region
    ],
    ids=["m=5000", "n=10**9"],
)
def test_one_count_builds_one_row(columns):
    if columns is None:
        spec = wide_spec(random.Random(43), 5000, D=5003)
    else:
        spec = validate_spec(SignalSpec.from_columns(**columns))
    delta = Fraction(4, 5)
    start = time.perf_counter()
    count = cumulative_count(spec, 1, spec.m - 1, delta)
    assert time.perf_counter() - start < 1
    assert _built_rows(spec) == [1]
    assert count == sum(count_direct(spec, delta).eta)


def test_a_rejected_call_builds_no_row(running_spec):
    spec = replace(running_spec)
    calls = [
        (IndexError, cumulative_count, (0, 0, Fraction(1, 10))),
        (IndexError, cumulative_count, (1, 2, Fraction(1, 10))),
        (IndexError, cumulative_count, (2, -1, Fraction(1, 10))),
        (ValueError, cumulative_count, (1, 1, Fraction(5, 4))),
        (ValueError, cumulative_count, (1, 0, 1)),
        (TypeError, cumulative_count, (1, 0, 0.3)),
        (TypeError, cumulative_count, (1, 0, True)),
        (IndexError, kappa_d, (1, 2)),
        (IndexError, kappa_d, (0, 1)),
    ]
    for error, call, args in calls:
        with pytest.raises(error):
            call(spec, *args)
    assert _built_rows(spec) == []


@pytest.mark.parametrize(
    "f,i,span",
    [(["1/3", "2/3", "1/2"], 1, 1), (["1/2", "1/3", "2/3"], 2, 1)],
    ids=["threshold-at-one", "thresholds-collide"],
)
def test_atlas_names_the_first_integer_run(f, i, span):
    spec = SignalSpec.from_columns(g=[1, 2, 3], n=[2, 2, 2], f=f)
    with pytest.raises(GenericityViolation) as atlas_err:
        enumerate_atlas(spec)
    with pytest.raises(GenericityViolation) as validate_err:
        validate_spec(spec)
    assert (atlas_err.value.i, atlas_err.value.K, atlas_err.value.total) == (i, span, 1)
    assert str(atlas_err.value) == str(validate_err.value)
