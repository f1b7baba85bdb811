"""Solve correction functions and place them within the classical families.

The solver takes a polynomial order p and derivative-norm weights
[iota_0, ..., iota_p] and returns the left/right correction functions as
Legendre series. Three members are shown: the plain-L2 weights (nodal
DG), a one-parameter (OSFR) member, and a genuinely new weight vector
that neither classical family can represent.
"""

import numpy as np

from gsfr import (
    CorrectionParams,
    esfr3_weights,
    osfr_iota,
    recover_weights,
    solve_correction,
    sufficient_bounds,
)


def describe(label, params):
    pair = solve_correction(params)
    bounds = sufficient_bounds(params)
    print(f"\n{label}: iota = {list(params.iota)}")
    print(f"  h_l coefficients: {np.round(pair.h_l.coeffs, 6)}")
    print(f"  boundary values:  h_l(-1) = {pair.h_l(-1.0):.3f}, h_l(+1) = {pair.h_l(1.0):.1e}")
    print(f"  inside sufficient bounds: {bounds.satisfied}")
    return pair


dg = describe("nodal DG (plain L2 weights)", CorrectionParams(3, [1, 0, 0, 0]))
print(f"  one-parameter equivalent: iota = {osfr_iota(dg.h_l)}")

osfr = describe("one-parameter member, iota = 1e-2", CorrectionParams(3, [1, 0, 0, 1e-2]))
print(f"  one-parameter weight recovered: iota = {osfr_iota(osfr.h_l)}")

unique = describe("a new member", CorrectionParams(3, [1, 0.01, 0.01, 0.1]))
print(f"  one-parameter family: {osfr_iota(unique.h_l)} (None = not a member)")
print(f"  kappa-matrix family:  {esfr3_weights(unique.g_l)} (None = not a member)")
print(f"  recovered weights:    {np.round(recover_weights(unique.h_l), 10)}")
