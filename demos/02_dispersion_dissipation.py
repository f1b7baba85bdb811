"""Dispersion and dissipation curves for selected p=3 correction functions.

Writes one CSV per scheme (columns k_hat, re_omega_mode_i,
im_omega_mode_i) and, when matplotlib is importable, a comparison figure
of the physical-mode curves.
"""

import numpy as np

from gsfr import CorrectionParams, dispersion_sweep
from gsfr.experiments import reference_operators

SCHEMES = {
    "dg": [1, 0, 0, 0],
    "osfr_1e-2": [1, 0, 0, 1e-2],
    "peak_step": [1, 2.069e-4, 2.336e-3, 2.336e-3],
    "arbitrary": [1, 0.01, 0.01, 0.1],
}

curves = {}
for name, weights in SCHEMES.items():
    ops = reference_operators(CorrectionParams(3, weights), 1.0)
    k_hats, om_re, om_im = dispersion_sweep(ops, 256)
    curves[name] = (k_hats, om_re, om_im)
    header = "k_hat," + ",".join(f"re_omega_mode_{m},im_omega_mode_{m}" for m in range(4))
    cols = [k_hats]
    for m in range(4):
        cols += [om_re[:, m], om_im[:, m]]
    out = f"dispersion_{name}.csv"
    with open(out, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    print(f"{name:>12}: wrote {out}; physical mode at k_hat=pi/2: "
          f"Re(omega)={np.interp(np.pi / 2, k_hats, om_re[:, 0]):+.4f}, "
          f"Im(omega)={np.interp(np.pi / 2, k_hats, om_im[:, 0]):+.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax_re, ax_im) = plt.subplots(1, 2, figsize=(10, 4))
    for name, (k_hats, om_re, om_im) in curves.items():
        ax_re.plot(k_hats, om_re[:, 0], label=name)
        ax_im.plot(k_hats, om_im[:, 0], label=name)
    ax_re.plot([0, np.pi], [0, np.pi], "k:", lw=0.8, label="exact")
    ax_re.set_xlabel(r"$\hat{k}$"); ax_re.set_ylabel(r"Re $\hat{\omega}$"); ax_re.legend(fontsize=8)
    ax_im.set_xlabel(r"$\hat{k}$"); ax_im.set_ylabel(r"Im $\hat{\omega}$")
    fig.tight_layout()
    fig.savefig("dispersion_dissipation.png", dpi=130)
    print("wrote dispersion_dissipation.png")
except ImportError:
    print("matplotlib not available; CSV output only")
