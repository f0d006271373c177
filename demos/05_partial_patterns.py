#!/usr/bin/env python3
"""Partial pattern sets: uncertainty that depends on the vantage point.

With only two observed patterns, differing in the last region's count,
the left reference leaves two discontinuities known to two grid steps
while the right reference pins everything to one.  The width-two
intervals take double-weight terms in the closed-form energy, and the
brute-force worst case matches exactly.
"""

from pcsamp import (
    ObservationSet,
    SignalSpec,
    closed_form_energy,
    enumerate_atlas,
    estimate_partial,
    infer_model,
    validate_spec,
    worst_case_energy,
)

spec = validate_spec(
    SignalSpec.from_columns(g=[4, 2, 1], n=[3, 3, 2], f=["1/4", "1/3", "1/5"])
)
atlas = enumerate_atlas(spec)
print(f"full atlas: {[list(c.pattern.eta) for c in atlas.cells]}")
observed = [(3, 3, 2), (3, 3, 1)]
print(f"observed only: {observed}")
print()

obs = ObservationSet.of(observed, spec.g)
for l in (0, spec.m):
    model = infer_model(obs, l)
    widths = {i: model.width(i) for i in range(spec.m + 1) if i != l}
    print(f"reference l = {l}: interval widths {widths}")
print()

model = infer_model(obs, 0)
est = estimate_partial(model, spec.g)
print("left-reference estimate cells:")
for cell in est.cells:
    if cell.lo < cell.hi:
        print(f"  ({cell.lo}, {cell.hi}) -> {cell.value}   ({cell.tag})")

closed = closed_form_energy(model, spec.g)
worst = worst_case_energy(est, spec.g, est.box, resolution=12)
print()
print(f"closed form with double-weighted width-two intervals: {closed}")
print(f"oracle worst case: {worst.value}")
assert closed == worst.value

right = closed_form_energy(infer_model(obs, spec.m), spec.g)
print(f"for comparison, the right reference guarantees: {right}")
print()
print("narrower intervals do not automatically mean a better guarantee: the")
print("reference also decides which jump's error is never paid, and here the")
print("left reference excludes the largest jump.")
