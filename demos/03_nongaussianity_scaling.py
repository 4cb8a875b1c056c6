#!/usr/bin/env python3
"""Non-Gaussianity versus the Gaussian-measurement gap at low squeezing.

Both the entropic non-Gaussianity delta0 and the measurement gap shrink
like lam^2 ln(lam); their ratio follows a closed quadratic-order
prediction and tends to 1 as the squeezing vanishes.  At strong squeezing
the two quantities decouple: delta0 diverges while the gap closes.
"""

import numpy as np

from cvwerner.exact import global_entropy
from cvwerner.nongauss import (
    discord_gap,
    gaussian_state_entropy,
    low_squeezing_ratio,
    nongaussianity,
    symplectic_eigenvalue,
)

print("p = 0.5 throughout\n")
nu = symplectic_eigenvalue(0.5, 0.5)
print(
    f"at lam = 0.5: S(tau) = {gaussian_state_entropy(nu):.6f} from nu = {nu:.6f}, "
    f"S(rho) = {global_entropy(0.5, 0.5):.6f},\n  delta0 = S(tau) - S(rho) = "
    f"{nongaussianity(0.5, 0.5):.6f}\n"
)
print("   lam     delta0        gap       ratio   predicted")
for lam in (0.3, 0.2, 0.1, 0.05):
    rep = discord_gap(0.5, lam)
    ratio = rep.delta0 / rep.gap
    print(
        f"  {lam:4.2f}  {rep.delta0:10.6f}  {rep.gap:10.6f}  {ratio:8.4f}  "
        f"{low_squeezing_ratio(lam):8.4f}"
    )
print("\nthe quadratic-order approximants at lam = 0.05:")
rep = discord_gap(0.5, 0.05)
print(f"  delta0: approx {rep.delta0_approx:.8f} vs exact {rep.delta0:.8f}")
print(f"  gap:    approx {rep.gap_approx:.8f} vs quadrature {rep.gap:.8f}")

print("\ndecoupling at strong squeezing:")
for lam in (0.5, 0.8, 0.95, 0.99):
    rep = discord_gap(0.5, lam)
    print(f"  lam = {lam:4.2f}:  delta0 = {rep.delta0:8.4f},  gap = {rep.gap:8.4f}")
print("the gap peaks near lam ~ 0.8 and then closes while delta0 keeps growing")
