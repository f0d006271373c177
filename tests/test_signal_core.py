"""Signal description validation, translations, and exact evaluation."""

import random
from fractions import Fraction

import pytest

from pcsamp import (
    AmplitudeViolation,
    GenericityViolation,
    PiecewiseFunction,
    RegionViolation,
    SignalSpec,
    SpecViolation,
    as_rational,
    find_genericity_violation,
    translate,
    truth_function,
    validate_spec,
)
from pcsamp.signal_core import on_lattice


def test_columns_regions_and_references_are_checked(running_spec):
    with pytest.raises(SpecViolation, match="^g, n, f must have equal lengths$"):
        SignalSpec.from_columns(g=[4, 2], n=[2], f=["1/4", "1/2"])
    with pytest.raises(RegionViolation, match="^at least one region is required$"):
        validate_spec(SignalSpec.from_columns(g=[], n=[], f=[]))
    for l in (-1, 3):
        with pytest.raises(IndexError, match=rf"^reference index {l} outside 0\.\.2$"):
            translate(running_spec, l)


def test_smallest_legal_signal_validates():
    spec = validate_spec(SignalSpec.from_columns(g=[5], n=[3], f=["1/2"]))
    assert spec.m == 1
    assert spec.lengths == (Fraction(5, 2),)


def test_integer_fraction_sum_is_rejected():
    # 1/4 + 3/4 = 1, so the two-region run must be flagged
    with pytest.raises(GenericityViolation) as err:
        validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2, 3], f=["1/4", "3/4"]))
    assert err.value.i == 1
    assert err.value.K == 1
    assert "(i=1,K=1)" in str(err.value)


def test_genericity_mixed_denominators():
    assert find_genericity_violation([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]) == (1, 2, 1)
    assert find_genericity_violation([Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)]) == (2, 1, 1)
    assert find_genericity_violation([Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)]) is None
    assert find_genericity_violation([]) is None


def _first_integer_run(fractions):
    for i in range(1, len(fractions) + 1):
        for j in range(i, len(fractions) + 1):
            total = sum(fractions[i - 1:j], Fraction(0))
            if total.denominator == 1:
                return i, j - i, total
    return None


def test_genericity_matches_brute_force():
    rng = random.Random(41)
    hits = 0
    for _ in range(400):
        m = rng.randint(1, 12)
        # small mixed denominators make integer-sum runs common
        denominators = [rng.choice((2, 3, 4, 5, 6, 97)) for _ in range(m)]
        fractions = [Fraction(rng.randint(1, q - 1), q) for q in denominators]
        expected = _first_integer_run(fractions)
        hits += expected is not None
        assert find_genericity_violation(fractions) == expected
    assert 100 < hits < 390


def test_on_lattice_is_the_least_common_lattice():
    rng = random.Random(23)
    for _ in range(200):
        values = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(0, 5))]
        L, ints = on_lattice(values)
        assert [Fraction(k, L) for k in ints] == values
        # L is a common multiple of the denominators, and no L // p is
        divisors = [v.denominator for v in values]
        assert all(L % d == 0 for d in divisors)
        assert not any(all(L // p % d == 0 for d in divisors) for p in (2, 3, 5, 7, 11) if L % p == 0)


def test_running_signal_validates(running_spec):
    # all consecutive sums: 1/4, 1/2, 3/4 -- none an integer
    assert running_spec.m == 2
    assert running_spec.breakpoints == (0, Fraction(7, 4), Fraction(17, 4))


def test_amplitude_rules():
    with pytest.raises(AmplitudeViolation):
        validate_spec(SignalSpec.from_columns(g=[0, 2], n=[2, 2], f=["1/4", "1/3"]))
    with pytest.raises(AmplitudeViolation):
        validate_spec(SignalSpec.from_columns(g=[4, 0], n=[2, 2], f=["1/4", "1/3"]))
    with pytest.raises(AmplitudeViolation):
        validate_spec(SignalSpec.from_columns(g=[4, 4], n=[2, 2], f=["1/4", "1/3"]))


@pytest.mark.parametrize(
    "n,f", [(1, "1/2"), (2, "0"), (2, "1"), (2, "5/4"), (2.9, "1/4"), (3.0, "1/2"), (True, "1/2")]
)
def test_region_rules(n, f):
    # through the column constructor and through the dataclass itself
    for spec in (
        SignalSpec.from_columns(g=[5], n=[n], f=[f]),
        SignalSpec(g=(Fraction(5),), n=(n,), f=(Fraction(f),)),
    ):
        with pytest.raises(RegionViolation):
            validate_spec(spec)


def test_non_integer_region_count_is_named():
    with pytest.raises(RegionViolation, match=r"n_1 must be an integer, got 2\.9"):
        validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2.9, 3], f=["1/4", "1/2"]))
    direct = SignalSpec(g=(Fraction(4), Fraction(2)), n=(2.5, 3), f=(Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(RegionViolation, match=r"n_1 must be an integer, got 2\.5"):
        validate_spec(direct)


@pytest.mark.parametrize(
    "column, violation, message",
    [
        (dict(g=(Fraction(4), 4.0)), AmplitudeViolation, r"g_2 must be an exact rational, got 4\.0"),
        (dict(g=(Fraction(4), "2")), AmplitudeViolation, r"g_2 must be an exact rational, got '2'"),
        (dict(g=(True, Fraction(2))), AmplitudeViolation, r"g_1 must be an exact rational, got True"),
        (dict(f=(0.25, Fraction(1, 2))), RegionViolation, r"f_1 must be an exact rational, got 0\.25"),
        (dict(T=0.5), RegionViolation, r"T must be an exact rational, got 0\.5"),
    ],
    ids=["float-g", "str-g", "bool-g", "float-f", "float-T"],
)
def test_inexact_columns_are_named(column, violation, message):
    # built directly: from_columns would coerce through as_rational first
    fields = dict(g=(Fraction(4), Fraction(2)), n=(2, 3), f=(Fraction(1, 4), Fraction(1, 2)), T=Fraction(1))
    with pytest.raises(violation, match=message):
        validate_spec(SignalSpec(**{**fields, **column}))


def test_int_columns_are_exact():
    spec = SignalSpec(g=(4, -2), n=(2, 3), f=(Fraction(1, 4), Fraction(1, 2)), T=2)
    assert validate_spec(spec) is spec


def test_truth_breakpoints_reference_zero(running_spec):
    fn = truth_function(running_spec, 0)
    assert fn.breakpoints == (0, Fraction(7, 4), Fraction(17, 4))
    assert fn.values == (4, 2)


def test_truth_breakpoints_reference_last(running_spec):
    fn = truth_function(running_spec, 2)
    assert fn.breakpoints == (Fraction(-17, 4), Fraction(-5, 2), 0)


def test_reference_zero_spans_total_length(running_spec):
    D = translate(running_spec, 0)
    assert D[0] == 0
    assert D[-1] == sum(running_spec.lengths)


def test_evaluate_half_open_convention(running_spec):
    fn = truth_function(running_spec, 0)
    assert fn.evaluate(0) == 4          # left endpoint included
    assert fn.evaluate(Fraction(17, 4)) == 0   # right endpoint excluded
    fn1 = truth_function(running_spec, 1)
    assert fn1.evaluate(-1) == 4        # D_0 = -7/4 < -1 < 0 lies in region 1


def test_translations_are_shifts(running_spec):
    rng = random.Random(7)
    base = truth_function(running_spec, 0)
    offsets = running_spec.breakpoints
    for l in range(running_spec.m + 1):
        shifted = truth_function(running_spec, l)
        for _ in range(100):
            t = Fraction(rng.randint(-600, 600), 97)
            assert shifted.evaluate(t) == base.evaluate(t + offsets[l])


def test_breakpoint_gaps_are_region_lengths(running_spec):
    for l in range(running_spec.m + 1):
        D = translate(running_spec, l)
        gaps = tuple(b - a for a, b in zip(D, D[1:]))
        assert gaps == running_spec.lengths
    for length, n in zip(running_spec.lengths, running_spec.n):
        assert n - 1 < length < n


def test_piecewise_invariants():
    with pytest.raises(ValueError):
        PiecewiseFunction(breakpoints=(0, 1), values=(1, 2))
    with pytest.raises(ValueError):
        PiecewiseFunction(breakpoints=(0, 0, 1), values=(1, 2))


def test_as_rational_exactness():
    assert as_rational("7/4") == Fraction(7, 4)
    assert as_rational(3) == 3
    with pytest.raises(TypeError):
        as_rational(0.25)
