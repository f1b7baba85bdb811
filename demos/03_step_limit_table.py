"""Peak stable time steps for the published order-recovering weight vectors.

Computes the largest stable step (jacobian 1, unit speed) for the six
published (p, scheme, weights) combinations and compares s * tau against
the published values with a single global scale s fitted on the p=3 rk44
row. Two stability thresholds are shown. At the strict 1e-10 threshold
four published optima (the three p=3 rows and p=4 rk55) report a
near-zero limit, because their semi-discrete operators carry small
positive eigenvalue real parts (4.5e-4, 3.3e-5, 2.3e-8 and 2.5e-6); the
p=4 rk33 and rk44 operators have none (~1e-15, round-off), so their two
limits coincide. At the 1e-4 threshold, where the limits plateau, the
three p=3 rows line up at s = 0.5 to within 0.2 percent.

The p=4 rows land at s * tau = 0.1134 / 0.1254 / 0.1217 against the
published 0.431 / 0.430 / 0.354, and the computed values are sound:

- the raw limits 0.226978 / 0.251025 / 0.243530 are reproduced bit for
  bit by the update-matrix route, and to 1e-4 by criterion 6's own route,
  which bisects on max |R(tau lambda)| (spectral mapping,
  eig(R(tau Q)) = R(tau eig(Q))) from a 400-point tau grid down to 1e-9;
- they move under 1 percent between rho_tol 1e-6 and 1e-2 (rk33 and rk44
  are unchanged down to 1e-10), so no thresholded reading reaches the
  published values, which would need raw limits of 0.862 / 0.860 / 0.708;
- the published/computed ratio differs by row (3.80 / 3.43 / 2.91), so
  no single rescaling fits;
- the p=4 system exactly as printed (its isolated iota_0 signs and its
  (3,5) iota_3 coefficient, -6615 where Gauss quadrature gives 33075,
  disagree with its own p=2/p=3 forms) gives raw limits 0.315 / 0.356 /
  0.430, still far off.

Limits of the published size exist for other p=4 weights, so the printed
p=4 vectors are most likely not the ones behind the printed limits.
Acceptance criterion 6 checks all of this.
"""

from gsfr import CorrectionParams, cfl_limit, solve_correction
from gsfr.experiments import reference_operators
from gsfr.spectral import PUBLISHED_STEP_LIMITS

computed = {}
print(f"{'p':>2} {'scheme':>6} {'strict tau':>12} {'tau @1e-4':>12} {'published':>10}")
for p, rk, weights, published in PUBLISHED_STEP_LIMITS:
    ops = reference_operators(solve_correction(CorrectionParams(p, weights)), 1.0)
    strict = cfl_limit(ops, rk, k_samples=256).tau_max
    loose = cfl_limit(ops, rk, k_samples=256, rho_tol=1e-4).tau_max
    computed[(p, rk)] = loose
    print(f"{p:>2} {rk:>6} {strict:>12.3e} {loose:>12.4f} {published:>10.3f}")

scale = 0.390 / computed[(3, "rk44")]
print(f"\nglobal scale fitted on (p=3, rk44): s = {scale:.4f}")
for p, rk, _, published in PUBLISHED_STEP_LIMITS:
    value = scale * computed[(p, rk)]
    rel = 100.0 * abs(value - published) / published
    print(f"  p={p} {rk}: s*tau = {value:.4f} vs {published:.3f}  ({rel:.2f}%)")

print("\nbaselines (plain-L2 weights), tau at the strict threshold:")
for p in (3, 4):
    ops = reference_operators(solve_correction(CorrectionParams(p, [1] + [0] * p)), 1.0)
    for rk in ("rk33", "rk44", "rk55"):
        print(f"  p={p} {rk}: tau = {cfl_limit(ops, rk, k_samples=256).tau_max:.4f}")
