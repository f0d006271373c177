#!/usr/bin/env python3
"""Accuracy depends on which discontinuity anchors the signal.

Sweeping the reference index over a longer signal shows the worst-case
energy change with the anchor: pinning the largest amplitude jump to zero
always wins, because that jump's interval is the only one whose error is
never paid.
"""

import random

from pcsamp import (
    ObservationSet,
    best_reference,
    closed_form_energies,
    enumerate_atlas,
    random_spec,
)

spec = random_spec(random.Random(424), m_range=(5, 5))
print(f"random signal: amplitudes {spec.g}")
print(f"jumps at discontinuities: "
      f"{[abs(a - b) for a, b in zip((0,) + spec.g, spec.g + (0,))]}")
print()

obs = ObservationSet.from_atlas(enumerate_atlas(spec), spec.g)
energies = dict(enumerate(closed_form_energies(obs, spec.g)))   # every reference in one pass
for l, energy in energies.items():
    print(f"  reference l = {l}: worst-case energy {energy}")

arg_min = min(energies, key=lambda l: (energies[l], l))
law = best_reference(spec.g)
print()
print(f"argmin over references: l = {arg_min}")
print(f"largest-jump reference: l = {law}")
assert arg_min == law
print("the sweep agrees with the largest-jump rule.")
