#!/usr/bin/env python3
"""The worst-case-optimal estimate and its guaranteed error energy.

Between intervals the estimate copies the forced signal value; inside
each interval it takes the midpoint of the two amplitudes meeting there.
The resulting worst-case error energy has a closed form, and a brute-force
search over every feasible placement of the true discontinuities
reproduces it exactly, at every grid placement: the adversary gains
nothing by moving the jumps around.
"""

from pcsamp import (
    ObservationSet,
    SignalSpec,
    closed_form_energy,
    energy_between,
    enumerate_atlas,
    estimate_full,
    infer_model,
    perturbation_minimax_check,
    truth_function,
    validate_spec,
    worst_case_energy,
)

spec = validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2, 3], f=["1/4", "1/2"]))
obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
model = infer_model(obs, 0)
est = estimate_full(model, spec.g)

print("estimate cells (zero outside):")
for cell in est.cells:
    print(f"  [{cell.lo}, {cell.hi}] -> {cell.value}   ({cell.tag})")
print()

closed = closed_form_energy(model, spec.g)
print(f"closed-form worst-case energy: {closed}")

truth = truth_function(spec, 0)
print(f"energy against the actual signal: {energy_between(truth, est.fn)}")

worst = worst_case_energy(est, spec.g, est.box, resolution=12)
print(f"oracle worst case, placement independent: {worst.value}")
for zone in worst.zones:
    print(f"  interval {zone.members}: max {zone.max_energy} = min {zone.min_energy}"
          "  (placement independent)")
assert worst.value == closed
print()

report = perturbation_minimax_check(est, spec.g, est.box, resolution=12)
print(f"perturbation probes: {len(report.probes)}, baseline {report.baseline}")
print(f"all probes kept the worst case at or above baseline: {report.passed}")
print(f"all probes strictly increased it: {report.all_strict}")
assert report.passed and report.all_strict
