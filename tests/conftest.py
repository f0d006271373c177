from fractions import Fraction

import pytest

from pcsamp import ObservationSet, PiecewiseFunction, SignalSpec, enumerate_atlas, infer_model, validate_spec


@pytest.fixture(scope="session")
def running_spec() -> SignalSpec:
    """Two regions with lengths 7/4 and 5/2 grid steps, amplitudes 4 and 2."""
    return validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2, 3], f=["1/4", "1/2"]))


@pytest.fixture(scope="session")
def example6_spec() -> SignalSpec:
    """Three regions whose atlas holds two patterns differing only in eta_3."""
    return validate_spec(
        SignalSpec.from_columns(g=[4, 2, 1], n=[3, 3, 2], f=["1/4", "1/3", "1/5"])
    )


def F(*args) -> Fraction:
    return Fraction(*args)


def amp(amplitudes, i: int) -> Fraction:
    """Region amplitude g_i with the zero padding g_0 = g_{m+1} = 0."""
    if 1 <= i <= len(amplitudes):
        return amplitudes[i - 1]
    return Fraction(0)


def full_model(spec: SignalSpec, l: int):
    """The model that the signal's full pattern atlas gives at reference l."""
    return infer_model(ObservationSet.from_atlas(enumerate_atlas(spec), spec.g), l)


def with_value(fn: PiecewiseFunction, lo, hi, value) -> PiecewiseFunction:
    """``fn`` forced to ``value`` on [lo, hi), by definition: split at every
    breakpoint and both ends, and override each piece whose midpoint lies
    in [lo, hi)."""
    lo, hi, value = Fraction(lo), Fraction(hi), Fraction(value)
    pts = sorted(set(fn.breakpoints) | {lo, hi})
    vals = [value if lo <= (a + b) / 2 < hi else fn.evaluate((a + b) / 2) for a, b in zip(pts, pts[1:])]
    return PiecewiseFunction(tuple(pts), tuple(vals))


def span_energy_reference(cuts, vals, c) -> Fraction:
    """Integral of (c - f)^2 over the pieces f given by ``cuts`` and
    ``vals``, one Fraction term per piece."""
    return sum(((c - v) ** 2 * (b - a) for a, b, v in zip(cuts, cuts[1:], vals)), Fraction(0))


def wide_spec(rng, m: int, D: int = 101) -> SignalSpec:
    """A valid signal with m < D regions (D prime), for sizes where
    ``random_spec``'s redraws stall: distinct nonzero prefix residues r_k
    mod D set f_k = ((r_k - r_{k-1}) mod D) / D, so no run of f sums to an
    integer."""
    residues = [0, *rng.sample(range(1, D), m)]
    f = [Fraction((b - a) % D, D) for a, b in zip(residues, residues[1:])]
    n = [rng.randint(2, 5) for _ in range(m)]
    g = [rng.choice((-3, -1, 2, 5)) + 7 * (k % 2) for k in range(m)]   # neighbours always differ
    return validate_spec(SignalSpec.from_columns(g=g, n=n, f=f))


def delta_chain_reference(spec: SignalSpec, delta1) -> list[Fraction]:
    """``delta_chain`` by definition, in Fractions: each region hands the
    next one the offset (delta_i + f_i) mod 1."""
    offsets = [Fraction(delta1)]
    for fi in spec.f[:-1]:
        offsets.append((offsets[-1] + fi) % 1)
    return offsets
