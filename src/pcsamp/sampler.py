"""Grid sampling of a piecewise constant signal.

Two independent routes to the per-region sample counts are provided:

* :func:`count_direct` counts the samples in each region's half-open
  span by exact ceilings of its endpoints relative to the grid offset,
  without the carry arithmetic of the closed form;
* :func:`cumulative_count` evaluates the closed-form count of samples
  over any consecutive run of regions as a function of the offset in the
  run's first region.

:func:`enumerate_atlas` combines the closed form with the threshold
structure of the offset axis to list every achievable count pattern
together with the sub-interval of offsets that produces it.

Internally positions are integers on the signal's 1/L lattice
(:attr:`SignalSpec.lattice`), and a grid offset p/q enters as its two
integers, read from the Fraction's ``_numerator`` and ``_denominator``
slots; :func:`delta_chain` works on the common lattice M = lcm(L, q) of
the signal and the offset.  Fractions appear only in arguments and
results.

The carry rule lives in one place.  :func:`cumulative_count`,
:func:`kappa_d` and :func:`enumerate_atlas` read the signal's run table
(:attr:`SignalSpec.run_table`), whose row i holds the integer pair
(d, L * threshold) of every run i..i+K.  Rows are cached per signal and
built per starting region on first use, so after its checks a count is
one row lookup and one integer comparison, and the atlas builds row 1
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import NamedTuple

from .signal_core import (
    GenericityViolation,
    RationalLike,
    SignalSpec,
    as_rational,
    find_genericity_violation,
)


class SamplingPattern(NamedTuple):
    """Per-region sample counts (eta_1 ... eta_m) for one grid placement."""

    eta: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.eta)


@dataclass(frozen=True)
class AtlasCell:
    """One offset sub-interval [delta_lo, delta_hi) and its count pattern."""

    delta_lo: Fraction
    delta_hi: Fraction
    pattern: SamplingPattern


@dataclass(frozen=True)
class PatternAtlas:
    """All achievable count patterns, keyed by the offset of the first sample.

    The cells partition [0, 1) (units of the grid interval) and consecutive
    cells carry distinct patterns; a signal with m regions always has
    exactly m + 1 cells.
    """

    cells: tuple[AtlasCell, ...]

    @property
    def patterns(self) -> tuple[SamplingPattern, ...]:
        return tuple(c.pattern for c in self.cells)


def _check_delta(delta: Fraction) -> tuple[int, int]:
    """Numerator and denominator of a grid offset checked to lie in [0, 1)."""
    p, q = delta._numerator, delta._denominator
    if not 0 <= p < q:
        raise ValueError(f"grid offset must lie in [0, 1), got {delta}")
    return p, q


def count_direct(spec: SignalSpec, delta1: RationalLike) -> SamplingPattern:
    """Count samples per region directly from the region spans.

    Sample points sit at delta1 + k (k = 0, 1, 2, ...) in units of the grid
    interval; a sample belongs to region i when it falls in
    [P_{i-1}, P_i) for the region's half-open span.  The samples below P
    number ceil(P - delta1), so region i holds
    ceil(P_i - delta1) - ceil(P_{i-1} - delta1) of them, computed by exact
    integer floor division.  This is the reference the closed-form
    counting is checked against: it never uses the carries kappa or the
    thresholds.
    """
    p, q = _check_delta(as_rational(delta1))
    L, _, breakpoints = spec.lattice
    # ceil(B/L - p/q) == -((p*L - B*q) // (L*q)) for B = L * P
    below = [-((p * L - b * q) // (L * q)) for b in breakpoints]
    return SamplingPattern(tuple(hi - lo for lo, hi in zip(below, below[1:])))


def _run_row(spec: SignalSpec, i: int) -> tuple[tuple[int, int], ...]:
    """Row i of :attr:`SignalSpec.run_table`, built on its first use.

    Entry K is (d, L * threshold) for the run i..i+K.  With the run's
    fractional parts summing to kappa + r/L (0 <= r < L), d is its summed
    integer parts minus kappa and the threshold 1 + kappa - sum(f) is
    (L - r)/L.  The caller checks 1 <= i <= m.
    """
    L, rows = spec.run_table
    row = rows[i]
    if row is None:
        f_prefix = spec.lattice.f_prefix
        n_prefix = spec.n_prefix
        f0, n0 = f_prefix[i - 1], n_prefix[i - 1]
        entries = []
        for fj, nj in zip(f_prefix[i:], n_prefix[i:]):
            kappa, r = divmod(fj - f0, L)
            entries.append((nj - n0 - kappa, L - r))
        row = rows[i] = tuple(entries)
    return row


def kappa_d(spec: SignalSpec, i: int, span: int) -> tuple[int, int]:
    """Integer carry and nominal count for regions i .. i+span (1-based).

    kappa is the integer part of the summed fractional parts; d is the
    summed integer parts minus kappa.  The cumulative sample count over
    the run is always d or d - 1.
    """
    n_prefix = spec.n_prefix
    j = i + span
    if i < 1 or span < 0 or j >= len(n_prefix):
        raise IndexError(f"region run i={i}, K={span} outside 1..{spec.m}")
    d = _run_row(spec, i)[span][0]
    return n_prefix[j] - n_prefix[i - 1] - d, d


def cumulative_count(spec: SignalSpec, i: int, span: int, delta_i: RationalLike) -> int:
    """Closed-form cumulative sample count over regions i .. i+span.

    ``delta_i`` is the offset of the first sample inside region i.  The
    count is d while the offset stays below the threshold
    1 + kappa - sum(f), and drops by one at and beyond it (ties take the
    lower branch, matching the half-open placement rule).
    """
    # the hot call of every count check: the checks come first, so a call
    # that raises builds no row; then one row lookup and one comparison.
    # An exact Fraction, the usual offset, skips as_rational.  The offset's
    # integers are read from its two slots, which costs far less than the
    # Python-level as_integer_ratio() call; the layout is CPython's, checked
    # by test_fraction_slots_hold_the_reduced_ratio.
    delta = delta_i if type(delta_i) is Fraction else as_rational(delta_i)
    p, q = delta._numerator, delta._denominator
    if not 0 <= p < q:
        raise ValueError(f"grid offset must lie in [0, 1), got {delta}")
    L, rows = spec.run_table
    if i < 1 or span < 0 or i + span >= len(rows):
        raise IndexError(f"region run i={i}, K={span} outside 1..{spec.m}")
    d, theta = (rows[i] or _run_row(spec, i))[span]
    # p/q < theta/L, cross-multiplied
    return d if p * L < theta * q else d - 1


def delta_chain(spec: SignalSpec, delta1: RationalLike) -> list[Fraction]:
    """Offsets of the first sample in every region, given the first offset.

    Each region hands the next one the offset (delta_i + f_i) mod 1: the
    fractional parts accumulate while the integer parts drop out.  With
    delta1 = p/q the recurrence runs on the lattice M = lcm(L, q): the
    offset in region k + 1 is (p*M/q + F_k*M/L) mod M over M, where
    F_k = L * (f_1 + ... + f_k) is ``lattice.f_prefix[k]``.  Only the
    returned offsets are Fractions.
    """
    delta = as_rational(delta1)
    p, q = _check_delta(delta)
    L, f_prefix, _ = spec.lattice
    M = math.lcm(L, q)
    start, scale = p * (M // q), M // L
    return [delta] + [Fraction((start + fk * scale) % M, M) for fk in f_prefix[1:-1]]


def enumerate_atlas(spec: SignalSpec) -> PatternAtlas:
    """Every achievable count pattern with its offset sub-interval.

    The cumulative count over regions 1..k drops by one exactly when the
    first offset reaches the threshold 1 + kappa(1, k-1) - sum(f_1..f_k).
    Sorting the m thresholds partitions [0, 1) into m + 1 cells.  Cell 0
    carries the differences of the nominal cumulative counts; crossing
    threshold k moves one sample from region k to region k + 1, or out of
    the support when k = m, so each later cell copies the pattern before
    it with one sample moved.  The thresholds and nominal counts are row 1
    of the run table, so the atlas costs O(m).  They are distinct and
    below 1 for a validated signal.  Two that collide, or one at 1, mean
    two prefix sums of f agree mod 1, so the first run with an integer
    sum is reported, the one :func:`validate_spec` names.
    """
    m = spec.m
    L = spec.lattice.L
    row = _run_row(spec, 1) if m else ()
    thresholds = [theta for _, theta in row]  # L * threshold, in (0, L]
    nominal = [0, *(d for d, _ in row)]  # nominal cumulative counts over regions 1..k
    if len(set(thresholds)) != m or L in thresholds:
        raise GenericityViolation(*find_genericity_violation(spec.f))

    order = sorted(range(m), key=thresholds.__getitem__)
    edges = [Fraction(e, L) for e in (0, *(thresholds[k] for k in order), L)]
    eta = list(map(sub, nominal[1:], nominal))   # cell 0: no count has dropped
    patterns = [SamplingPattern(tuple(eta))]
    for k in order:   # threshold k + 1: region k + 1 gives one sample to region k + 2
        eta[k] -= 1
        if k + 1 < m:
            eta[k + 1] += 1
        patterns.append(SamplingPattern(tuple(eta)))
    cells = tuple(
        AtlasCell(delta_lo=lo, delta_hi=hi, pattern=pattern)
        for lo, hi, pattern in zip(edges, edges[1:], patterns)
    )
    assert len(set(patterns)) == m + 1, "atlas cells must carry distinct patterns"
    return PatternAtlas(cells=cells)
