#!/usr/bin/env python3
"""Gaussian measurements are strictly suboptimal on the vacuum Werner state.

The Gaussian discord minimizes the conditional entropy over displaced
squeezed-state POVMs, given by their squeezing t alone (t = 0 heterodyne,
large t homodyne; the state's phase symmetry removes the phase).  For every
0 < p < 1 it stays strictly above the photon-counting discord; the
minimizing measurement switches from homodyne at moderate squeezing to
heterodyne at strong squeezing.
"""

import numpy as np

from cvwerner import exact
from cvwerner.gaussian import conditional_entropy, gaussian_discord

lam = 0.5
print(f"squeezing factor lam = {lam}\n")
print("     p     discord   gaussian     gap      argmin t")
for p in np.linspace(0.1, 0.9, 9):
    res = gaussian_discord(p, lam)
    d = exact.discord(p, lam)
    print(f"  {p:4.2f}  {d:9.6f}  {res.value:9.6f}  {res.conditional_entropy:9.6f}  {res.t:6.2f}")

print("\nconditional entropy along the measurement-squeezing ladder (p = 0.5):")
for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
    h = conditional_entropy(0.5, lam, t)
    print(f"  t = {t:4.1f}   H = {h:.9f}")
print("monotone decreasing: homodyne is the Gaussian optimum here")

print("\nat strong squeezing the preference flips to heterodyne:")
for lam_strong in (0.8, 0.9, 0.95):
    res = gaussian_discord(0.5, lam_strong)
    print(f"  lam = {lam_strong}:  argmin t = {res.t:.2f},  gap = {res.conditional_entropy:.5f}")
