"""The exact discretization oracle for synthgen's 0-3 scores.

The discretization attenuates latent correlations; ground_truth() prices that
in exactly, from the discretized correlations of each category's latent model
(Plackett's identity, one quadrature per item pair), with no sampling.
"""

import numpy as np

from emanet.netcore import ALL10, upper_triangle_sum
from emanet.synthgen import DISCRETIZE_THRESHOLDS, SynthConfig

NODES, WEIGHTS = np.polynomial.legendre.leggauss(64)


def discretized_correlation(corr: tuple, mean: tuple) -> np.ndarray:
    """Exact correlation matrix of the 0-3 scores of latents N(mean, corr).

    Item i's thresholds sit at h_i = DISCRETIZE_THRESHOLDS - mean_i. By Plackett's
    identity (Biometrika 41, 1954), cov(i, j) is the sum over a in h_i, b in h_j
    of the integral of phi2(a, b; r) dr from 0 to rho_ij; var(i) is that at rho = 1.
    With r = sin t the integrand is exp(-(a² - 2ab·sin t + b²) / (2cos²t)) / 2π,
    smooth, and one 64-node Gauss-Legendre rule gives r to ~1e-13.
    """
    rho = np.array(corr, dtype=float)
    np.fill_diagonal(rho, 1.0)
    h = np.subtract(DISCRETIZE_THRESHOLDS, np.asarray(mean, dtype=float)[:, None])
    a, b = h[:, None, :, None, None], h[None, :, None, :, None]
    t_max = np.arcsin(np.clip(rho, -1.0, 1.0))
    t = (t_max[..., None] * ((NODES + 1) / 2))[:, :, None, None, :]
    f = np.exp(-(a * a - 2 * a * b * np.sin(t) + b * b) / (2 * np.cos(t) ** 2))
    cov = (f * (WEIGHTS / 2)).sum(axis=(-3, -2, -1)) * t_max / (2 * np.pi)
    var = np.diagonal(cov)
    r = np.clip(cov / np.sqrt(var[:, None] * var[None, :]), -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def ground_truth(cfg: SynthConfig, items: tuple = ALL10) -> float:
    """Expected connectivity difference (isolation minus sociability) over the EMA columns items.

    Exact: each category's discretized correlations, at its own latent means,
    so Likert coarsening attenuation is priced into the planted effect.
    """
    idx = np.ix_(items, items)
    r_iso = discretized_correlation(cfg.isolation_corr, cfg.isolation_mean)[idx]
    r_soc = discretized_correlation(cfg.sociability_corr, cfg.sociability_mean)[idx]
    return upper_triangle_sum(r_iso) - upper_triangle_sum(r_soc)
