"""Recover discontinuity-location knowledge from observed count patterns.

Given a set of count patterns and a reference discontinuity l, each other
discontinuity i is located through the cumulative count of samples between
it and the reference.  Observing both achievable values of that count pins
the discontinuity to an open interval of width one grid step; observing a
single value only pins it to width two.  Runs of width-two discontinuities
coupled through regions that always show exactly one sample form chains,
whose geometry the estimator needs explicitly.

The module works purely from patterns and known amplitudes; it never needs
the generating signal, so it solves the inverse problem as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import sub
from typing import Iterable, Sequence

from .sampler import PatternAtlas, SamplingPattern
from .signal_core import RationalLike, as_rational


class InconsistentObservations(ValueError):
    """The observed patterns cannot all come from one signal."""


@dataclass(frozen=True)
class ObservationSet:
    """Distinct observed count patterns plus the known region amplitudes."""

    patterns: tuple[SamplingPattern, ...]
    amplitudes: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("at least one observed pattern is required")
        m = len(self.amplitudes)
        for p in self.patterns:
            if p.m != m:
                raise ValueError(f"pattern {p.eta} has {p.m} regions, expected {m}")
            if any(e < 1 for e in p.eta):
                raise ValueError(f"pattern {p.eta} has a non-positive count; every region holds a sample")

    @classmethod
    def of(
        cls,
        patterns: Iterable[Sequence[int] | SamplingPattern],
        amplitudes: Sequence[RationalLike],
    ) -> "ObservationSet":
        canonical = {
            p if isinstance(p, SamplingPattern) else SamplingPattern(tuple(int(e) for e in p))
            for p in patterns
        }
        return cls(
            patterns=tuple(sorted(canonical)),
            amplitudes=tuple(as_rational(a) for a in amplitudes),
        )

    @classmethod
    def from_atlas(cls, atlas: PatternAtlas, amplitudes: Sequence[RationalLike]) -> "ObservationSet":
        return cls.of(atlas.patterns, amplitudes)

    @property
    def m(self) -> int:
        return len(self.amplitudes)

    @cached_property
    def _prefix_counts(self) -> tuple[tuple[int, ...], ...]:
        """Entry [i][p]: samples of pattern p in regions 1..i (row 0 is zeros)."""
        return tuple(zip(*(accumulate(p.eta, initial=0) for p in self.patterns)))


@dataclass(frozen=True)
class Chain(object):
    """One maximal coupled run of width-two discontinuities.

    A chain lies wholly on one side of the reference, and its rule is the
    same on either side, reflected: ``anchor`` is the member nearest the
    reference (the leftmost member right of it, the rightmost member left
    of it), ``length`` the number of always-one-sample regions it spans,
    ``members`` the discontinuity indices in ascending order, and ``b``
    the interior-cell bound: the chain's span holds unit cells 1 .. b+1,
    of which 2 .. b are interior.
    """

    anchor: int
    length: int
    members: tuple[int, ...]
    b: int


@dataclass(frozen=True)
class ChainStructure:
    plus: tuple[Chain, ...]            # chains to the right of the reference
    minus: tuple[Chain, ...]           # chains to the left of the reference
    free: frozenset[int]               # width-two indices outside every chain

    @property
    def empty(self) -> bool:
        return not self.plus and not self.minus


@dataclass(frozen=True)
class UncertaintyModel:
    """Everything known about discontinuity positions for one reference.

    ``C[i]`` is the anchor integer of discontinuity i's interval
    (``C[l] == 0``), ``U`` the indices known only to width two, ``Ucomp``
    the indices other than l known to width one, and ``G[i]`` the open
    interval (in integer grid units) that must contain discontinuity i,
    with ``G[l] == (0, 0)``.
    """

    l: int
    C: tuple[int, ...]
    U: frozenset[int]
    Ucomp: frozenset[int]
    G: tuple[tuple[int, int], ...]
    chains: ChainStructure

    @property
    def m(self) -> int:
        return len(self.C) - 1

    def width(self, i: int) -> int:
        lo, hi = self.G[i]
        return hi - lo


def cumulative_values(obs: ObservationSet, l: int, i: int) -> set[int]:
    """Observed values of the sample count between discontinuities i and l.

    For i > l this is eta_{l+1} + ... + eta_i, for i < l it is
    eta_{i+1} + ... + eta_l.  Consistent observations yield one value or
    two consecutive values; anything else is rejected.  Each value is a
    difference of two rows of ``obs._prefix_counts``, so a call costs one
    step per observed pattern.
    """
    m = obs.m
    if not (0 <= i <= m and 0 <= l <= m):
        raise IndexError(f"indices i={i}, l={l} outside 0..{m}")
    if i == l:
        raise ValueError("the reference discontinuity has no cumulative count")
    if i > l:
        lo_r, hi_r = l + 1, i
    else:
        lo_r, hi_r = i + 1, l
    prefix = obs._prefix_counts
    vals = set(map(sub, prefix[hi_r], prefix[lo_r - 1]))
    if len(vals) > 2 or (len(vals) == 2 and max(vals) - min(vals) != 1):
        raise InconsistentObservations(
            f"cumulative counts over regions {lo_r}..{hi_r} take values {sorted(vals)}; "
            "a single signal allows only one value or two consecutive ones"
        )
    return vals


def chain_analysis(
    obs: ObservationSet,
    l: int,
    U: frozenset[int],
    G: Sequence[tuple[int, int]],
) -> ChainStructure:
    """Group width-two discontinuities into coupled runs.

    Regions a+1 .. b (a < b) that every observation fills with exactly one
    sample form a maximal run with members a .. b.  A run that lies wholly
    on one side of the reference (a > l or b < l) is a chain when its two
    members nearest the reference are both width two: (a, a+1) on the
    right, (b-1, b) on the left.  The rule is the same on either side,
    reflected; a chain whose other members are not all width two is
    inconsistent.  Whatever of U remains outside every chain is returned
    as ``free``.
    """
    all_one = [all(p.eta[r] == 1 for p in obs.patterns) for r in range(obs.m)]
    runs: list[tuple[int, int]] = []
    a = 0
    for one, group in groupby(all_one):
        b = a + len(list(group))
        if one and (a > l or b < l):
            runs.append((a, b))
        a = b
    # right side first, each side outward from the reference
    runs.sort(key=lambda run: (run[0] < l, abs(run[0] - l)))

    plus: list[Chain] = []
    minus: list[Chain] = []
    claimed: set[int] = set()
    for a, b in runs:
        anchor, near, side = (a, a + 1, plus) if a > l else (b, b - 1, minus)
        if anchor not in U or near not in U:
            continue
        members = tuple(range(a, b + 1))
        if not set(members) <= U:
            raise InconsistentObservations(
                f"coupled run {members} crosses a width-one discontinuity"
            )
        span = (G[b][1] - G[a][0]) - 1
        assert span == b - a + 1, "chain span must hold exactly length+2 unit cells"
        side.append(Chain(anchor=anchor, length=b - a, members=members, b=span))
        claimed.update(members)

    free = frozenset(U - claimed)
    return ChainStructure(plus=tuple(plus), minus=tuple(minus), free=free)


def infer_model(obs: ObservationSet, l: int) -> UncertaintyModel:
    """Locate every discontinuity relative to reference l as far as possible.

    Two observed cumulative values pin the anchor integer C_i and a
    width-one interval; a single observed value leaves the anchor ambiguous
    by one, widening the interval to two grid steps.  The chain structure
    of the width-two indices is computed alongside.
    """
    m = obs.m
    if not (0 <= l <= m):
        raise IndexError(f"reference index {l} outside 0..{m}")
    C = [0] * (m + 1)
    G: list[tuple[int, int]] = [(0, 0)] * (m + 1)
    U: set[int] = set()
    for i in range(m + 1):
        if i == l:
            continue
        vals = cumulative_values(obs, l, i)
        if len(vals) == 2:
            c = max(vals)
            C[i] = c
            G[i] = (-c, -(c - 1)) if i < l else (c - 1, c)
        else:
            s = vals.pop()
            C[i] = s
            U.add(i)
            G[i] = (-(s + 1), -(s - 1)) if i < l else (s - 1, s + 1)
        lo, hi = G[i]
        assert (hi <= 0) if i < l else (lo >= 0), "interval must lie on the reference's correct side"
    U_frozen = frozenset(U)
    chains = chain_analysis(obs, l, U_frozen, G)
    return UncertaintyModel(
        l=l,
        C=tuple(C),
        U=U_frozen,
        Ucomp=frozenset(range(m + 1)) - U_frozen - {l},
        G=tuple(G),
        chains=chains,
    )
