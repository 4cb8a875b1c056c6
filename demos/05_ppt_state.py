#!/usr/bin/env python3
"""A positive-partial-transpose state with small but nonzero correlations.

On the slice mu^2 = lam, p = (1 - lam)/2 the partial transpose of the
Werner state is itself a valid state with a fully analytic spectrum.  Its
photon-counting bound collapses to U = lam ln 2: the nonclassical
correlations stay finite (at most ln 2) even at infinite squeezing.
"""

import numpy as np

from cvwerner import bounds, ppt
from cvwerner.fock import eig_spectrum, von_neumann_entropy
from cvwerner.states import ppt_werner

print("   lam     U = lam ln2      L        L/U")
for lam in np.linspace(0.1, 0.99, 8):
    rep = ppt.bounds(lam)
    u, low = rep.upper, rep.lower
    print(f"  {lam:5.2f}   {u:10.6f}  {low:9.6f}  {low / u:7.3f}")
print("both bounds stay finite; U tends to ln 2 = 0.693147 as lam -> 1")

lam = 0.5
rep = ppt.bounds(lam)
print(f"\nanalytic report at lam = {lam}:")
print(f"  S(rho)       = {rep.entropy_global:.8f}")
print(f"  S(rho_B)     = {rep.entropy_reduced:.8f}")
print(f"  H_eig(A|B)   = {rep.conditional_entropy:.8f}")
print(f"  U            = {rep.upper:.8f}")
print(f"  L            = {rep.lower:.8f}")
print(f"  MID          = {rep.mid:.8f}   (equals U)")

state = ppt_werner(lam, 44)
print("\ndense-matrix cross-checks on the built state:")
print(f"  entropy from eigensolver: {von_neumann_entropy(eig_spectrum(state)):.8f}")
print(f"  generic photon-counting bound: {bounds.upper_bound_dense(state):.8f}")
spec = eig_spectrum(state)
closed = ppt.closed_form_spectrum(lam, 44)
print(f"  spectrum vs closed form: max dev {np.max(np.abs(spec[: closed.size] - closed)):.1e}")
