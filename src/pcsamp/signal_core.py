"""Exact-rational model of spatially limited piecewise constant signals.

All positions and lengths are kept in units of the sampling interval, so
every quantity is a `fractions.Fraction` and every comparison is exact.
Hot paths work on the signal's lattice instead: positions scaled by L,
the lcm of the fractional parts' denominators, are plain integers (see
:attr:`SignalSpec.lattice`); :func:`on_lattice` builds this lattice and
every other one in the package.  The physical interval only matters when
results are rendered back to scenario units, which is the command-line
layer's job.

Conventions used throughout the package:

* a signal has m regions; region i (1-based) has amplitude ``g_i``,
  length ``n_i - f_i`` with integer ``n_i >= 2`` and ``0 < f_i < 1``;
* region membership is half open, ``left <= t < right``, and the signal
  is zero outside its support;
* discontinuities are indexed 0..m; index l may be chosen as the
  reference and translated to position zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or exact string ("p/q" or decimal) to Fraction.

    Floats are rejected outright: a binary float has already lost exactness
    and would silently poison every downstream comparison.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"refusing inexact value {value!r}; pass int, Fraction or 'p/q' string")


class SpecViolation(ValueError):
    """Base class for signal description problems."""


class AmplitudeViolation(SpecViolation):
    """Zero end amplitude or equal adjacent amplitudes."""


class RegionViolation(SpecViolation):
    """Region integer part not an int of at least two, or fractional part outside (0, 1)."""


class GenericityViolation(SpecViolation):
    """A consecutive run of fractional parts sums to an integer.

    Such a sum would put a pattern-change threshold on a grid point and
    make sample counts ambiguous, so these signals are rejected.
    """

    def __init__(self, i: int, span: int, total: Fraction):
        self.i = i
        self.K = span
        self.total = total
        super().__init__(
            f"(i={i},K={span}): fractional parts f[{i}..{i + span}] sum to the integer {total}"
        )


def on_lattice(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L, the lcm of the denominators of ``values``, and each value as an
    integer over L: (L, [L*v_1, L*v_2, ...])."""
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


class Lattice(NamedTuple):
    """A signal's positions as integers over the common denominator L."""

    L: int
    f_prefix: tuple[int, ...]
    breakpoints: tuple[int, ...]


@dataclass(frozen=True)
class SignalSpec:
    """Exact description of one piecewise constant signal.

    ``g``, ``n`` and ``f`` are the per-region columns, ordered left to
    right: amplitude, integer part and fractional part, so region i has
    length ``n[i] - f[i]``.  ``T`` is the physical sampling interval, kept
    only for reporting (internally everything is in units of T).
    """

    g: tuple[Fraction, ...]
    n: tuple[int, ...]
    f: tuple[Fraction, ...]
    T: Fraction = Fraction(1)

    @classmethod
    def from_columns(
        cls,
        g: Sequence[RationalLike],
        n: Sequence[int],
        f: Sequence[RationalLike],
        T: RationalLike = 1,
    ) -> "SignalSpec":
        if not (len(g) == len(n) == len(f)):
            raise SpecViolation("g, n, f must have equal lengths")
        return cls(
            g=tuple(as_rational(gi) for gi in g),
            n=tuple(n),
            f=tuple(as_rational(fi) for fi in f),
            T=as_rational(T),
        )

    @property
    def m(self) -> int:
        return len(self.g)

    @cached_property
    def lengths(self) -> tuple[Fraction, ...]:
        """Region lengths in units of T: n_i - f_i."""
        return tuple(Fraction(ni) - fi for ni, fi in zip(self.n, self.f))

    @cached_property
    def lattice(self) -> Lattice:
        """L with L * (f_1 + ... + f_k) and L * P_k for k = 0..m, all as ints."""
        L, f = on_lattice(self.f)
        f_prefix = tuple(accumulate(f, initial=0))
        return Lattice(
            L, f_prefix, tuple(L * nk - fk for nk, fk in zip(self.n_prefix, f_prefix))
        )

    @cached_property
    def run_table(self) -> tuple[int, list[Optional[tuple[tuple[int, int], ...]]]]:
        """The closed-form count's run table: L and one row per starting region.

        Row i (1-based; slot 0 is unused) holds, for K = 0..m-i, the
        integer pair (d, L * threshold) of the run i..i+K on this signal's
        1/L lattice.  A row is None until :mod:`pcsamp.sampler` builds it
        on its first use, so a call costs O(m - i), never O(m^2).  L sits
        beside the rows so that a count reads one cached attribute.
        """
        return self.lattice.L, [None] * len(self.n_prefix)

    @cached_property
    def n_prefix(self) -> tuple[int, ...]:
        """Prefix sums of the integer parts for k = 0..m."""
        return tuple(accumulate(self.n, initial=0))

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Discontinuity positions 0 = P_0 < P_1 < ... < P_m in units of T."""
        lat = self.lattice
        return tuple(Fraction(p, lat.L) for p in lat.breakpoints)


def find_genericity_violation(fractions: Sequence[Fraction]) -> Optional[tuple[int, int, Fraction]]:
    """Scan all consecutive runs of fractional parts for an integer sum.

    Returns (i, K, total) for the first offending run f[i..i+K] (smallest
    1-based i, then smallest K), or None when every run sums to a
    non-integer.  On the 1/L lattice a run sums to an integer exactly when
    its two bounding prefix sums agree mod L, so one right-to-left pass
    remembering the nearest later index of each residue finds it in O(m).
    """
    L, f = on_lattice(fractions)
    prefix = list(accumulate(f, initial=0))
    nearest: dict[int, int] = {}
    hit = None
    for start in range(len(prefix) - 1, -1, -1):
        residue = prefix[start] % L
        if residue in nearest:
            hit = start, nearest[residue]
        nearest[residue] = start
    if hit is None:
        return None
    start, end = hit
    return start + 1, end - start - 1, Fraction(prefix[end] - prefix[start], L)


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def validate_spec(spec: SignalSpec) -> SignalSpec:
    """Check every invariant of a signal description and return it unchanged.

    Raises AmplitudeViolation, RegionViolation, or GenericityViolation with
    the offending indices named.  Amplitudes, fractional parts and T must
    be exact: an int or a Fraction.
    """
    if spec.m < 1:
        raise RegionViolation("at least one region is required")
    g, n, f = spec.g, spec.n, spec.f
    if not _is_exact(spec.T):
        raise RegionViolation(f"T must be an exact rational, got {spec.T!r}")
    for i, gi in enumerate(g, start=1):
        if not _is_exact(gi):
            raise AmplitudeViolation(f"g_{i} must be an exact rational, got {gi!r}")
    if spec.T <= 0:
        raise RegionViolation(f"sampling interval T must be positive, got {spec.T}")
    if g[0] == 0:
        raise AmplitudeViolation("g_1 must be nonzero")
    if g[-1] == 0:
        raise AmplitudeViolation(f"g_{spec.m} must be nonzero")
    for i in range(spec.m - 1):
        if g[i] == g[i + 1]:
            raise AmplitudeViolation(f"adjacent amplitudes g_{i + 1} and g_{i + 2} are equal ({g[i]})")
    for i, (ni, fi) in enumerate(zip(n, f), start=1):
        if isinstance(ni, bool) or not isinstance(ni, int):
            raise RegionViolation(f"n_{i} must be an integer, got {ni!r}")
        if ni < 2:
            raise RegionViolation(f"n_{i} must be at least 2, got {ni}")
        if not _is_exact(fi):
            raise RegionViolation(f"f_{i} must be an exact rational, got {fi!r}")
        if not (0 < fi < 1):
            raise RegionViolation(f"f_{i} must lie strictly inside (0, 1), got {fi}")
    hit = find_genericity_violation(f)
    if hit is not None:
        raise GenericityViolation(*hit)
    return spec


def translate(spec: SignalSpec, l: int) -> tuple[Fraction, ...]:
    """Positions D_0..D_m of all discontinuities with discontinuity ``l`` at zero.

    D[i] is the position of discontinuity i in units of T; D[l] == 0 and
    the gaps D[i] - D[i-1] are exactly the region lengths.
    """
    if not (0 <= l <= spec.m):
        raise IndexError(f"reference index {l} outside 0..{spec.m}")
    points = spec.breakpoints
    offset = points[l]
    return tuple(p - offset for p in points)


@dataclass(frozen=True)
class PiecewiseFunction:
    """Piecewise constant function with sorted rational breakpoints.

    Value is ``values[i]`` on ``breakpoints[i] <= t < breakpoints[i+1]``
    and zero outside the first/last breakpoint.  Adjacent equal values are
    permitted (estimates produce them); true signals never do.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(as_rational(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(as_rational(v) for v in self.values))
        if len(self.values) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one value per interval between breakpoints")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ValueError(f"breakpoints must strictly increase; saw {a} then {b}")

    @cached_property
    def _integers(self) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
        """(N, xs, D, vs): the breakpoints as integers xs over N and the
        values as integers vs over D, each pair built by :func:`on_lattice`.
        The estimator stores the table it built its function from
        (:meth:`_from_integers`); any other function builds it here, on
        first use."""
        N, xs = on_lattice(self.breakpoints)
        D, vs = on_lattice(self.values)
        return N, tuple(xs), D, tuple(vs)

    @classmethod
    def _from_integers(
        cls, breakpoints: tuple[Fraction, ...], values: tuple[Fraction, ...],
        integers: tuple[int, tuple[int, ...], int, tuple[int, ...]],
    ) -> "PiecewiseFunction":
        """The function with these Fractions, which the caller built from
        ``integers``, the table of :attr:`_integers` up to scale, with
        increasing breakpoints; it is stored, and no Fraction is compared."""
        fn = object.__new__(cls)
        fn.__dict__.update(breakpoints=breakpoints, values=values, _integers=integers)
        return fn

    def evaluate(self, t: RationalLike) -> Fraction:
        t = as_rational(t)
        j = bisect_right(self.breakpoints, t) - 1
        if 0 <= j < len(self.values):
            return self.values[j]
        return Fraction(0)


def truth_function(spec: SignalSpec, l: int) -> PiecewiseFunction:
    """The signal translated so that discontinuity ``l`` sits at zero.

    Breakpoints are the translated discontinuity positions, the values are
    the region amplitudes, and everything outside the support is zero.
    """
    return PiecewiseFunction(breakpoints=translate(spec, l), values=spec.g)
