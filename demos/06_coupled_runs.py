#!/usr/bin/env python3
"""Coupled runs: when uncertainty intervals overlap and interact.

A single observed pattern (3, 1) leaves both discontinuities known only
to two grid steps, and the always-one-sample second region couples them:
their spacing must stay in [1, 2) grid steps.  The middle of the coupled
span can then see three different amplitudes, and the optimal cell value
is the Chebyshev center (min + max) / 2 of those three.  No closed-form
energy is known here, so the worst case comes from a joint grid search,
and perturbation probes confirm no cell value can be improved.
"""

from fractions import Fraction

from pcsamp import (
    ObservationSet,
    closed_form_energy,
    estimate_partial,
    infer_model,
    perturbation_minimax_check,
    worst_case_energy,
)

obs = ObservationSet.of([(3, 1)], [4, 2])
model = infer_model(obs, 0)
print(f"intervals: D_1 in {model.G[1]}, D_2 in {model.G[2]} (both width two, overlapping)")
chain = model.chains.plus[0]
print(f"coupled run: members {chain.members}, spacing in [1, 2) grid steps")
print()

est = estimate_partial(model, [4, 2])
print("estimate cells:")
for cell in est.cells:
    note = ""
    if cell.tag == "chain_interior":
        note = f"   <- Chebyshev center of amplitudes indexed {cell.indices}"
    print(f"  ({cell.lo}, {cell.hi}) -> {cell.value}   ({cell.tag}){note}")
print()

print(f"closed-form energy: {closed_form_energy(model, [4, 2])} (none exists with coupled runs)")
worst = worst_case_energy(est, (Fraction(4), Fraction(2)), est.box, resolution=50)
print(f"joint grid search at step 1/50: worst case {worst.value} = {float(worst.value)}")
print(f"achieved with placements D_1 = {worst.witness[1]}, D_2 = {worst.witness[2]}")
print()

report = perturbation_minimax_check(est, (Fraction(4), Fraction(2)), est.box, resolution=50)
margin = min(p.worst - report.baseline for p in report.probes)
print(f"{len(report.probes)} perturbation probes; smallest worst-case increase {margin}")
assert report.passed and report.all_strict
print("every probe strictly increased the worst case: the cells are locally optimal.")
