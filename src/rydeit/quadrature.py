"""Radial integrals of k(R) times a correlator over the Van der Waals tail.

All integrals here have the form

    eta * Int d^3R  k(R) f(k(R)),      k(R) = -c6 / R^6,

with f bounded at k -> -inf (blockade core) and f -> f(0) at large R.
The substitution u = (R / r_b)^3 with r_b = (|c6| / k_scale)^(1/6) maps
this to a flat integrand:

    4 pi eta (r_b^3 / 3) * Int_0^inf  k(u) f(k(u)) du,
    k(u) = -sign(c6) * k_scale / u^2,

which plateaus at the blockade core (u -> 0) and decays as u^-2. The far
power-law tail beyond a cutoff U is integrated analytically from the first
two Taylor terms of f around k = 0.

Nothing on the production path calls this module: weak-probe rows take
V13^(3) from the closed-form pole sum, and the nonlinear solve uses the
closed-form F(lambda). It is the validation and reference path, so SciPy
(``vdw_k_integral``) and mpmath (``vdw_k_integral_reference``) are
imported inside the functions, on first use, and ``import rydeit`` loads
only numpy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialQuadratureResult",
    "QuadratureError",
    "vdw_k_integral",
    "vdw_k_integral_reference",
]

_U_CUT = 400.0  # |k(U)| / k_scale = 6e-6: quadratic tail truncation ~ 1e-11


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class RadialQuadratureResult:
    value: complex
    error: float
    nodes: int
    converged: bool


def _tail(fn, k_scale_signed, u_cut):
    """Analytic tail Int_U^inf k f(k) du from f ~ f0 + f1 k."""
    f0 = fn(0.0)
    k_at_cut = k_scale_signed / u_cut**2
    f1 = (fn(k_at_cut) - f0) / k_at_cut
    t1 = k_scale_signed * f0 / u_cut
    t2 = k_scale_signed**2 * f1 / (3.0 * u_cut**3)
    # the next (quadratic) Taylor term bounds the truncation error
    f2k2 = fn(k_at_cut) - f0 - f1 * k_at_cut
    t3_bound = abs(f2k2) * abs(k_scale_signed) / (5.0 * u_cut)
    return t1 + t2, t3_bound


def vdw_k_integral(fn, c6: float, eta: float, k_scale: float,
                   rel_tol: float = 1e-8) -> RadialQuadratureResult:
    """eta * Int d^3R k(R) fn(k(R)) by adaptive Gauss-Kronrod quadrature.

    ``k_scale`` sets the interaction strength at the blockade radius
    (typically |T| or |lambda|); it only conditions the substitution.
    """
    from scipy import integrate

    if c6 == 0.0:
        return RadialQuadratureResult(0.0, 0.0, 0, True)
    if k_scale <= 0:
        raise ValueError("k_scale must be positive")
    r_b = (abs(c6) / k_scale) ** (1.0 / 6.0)
    ks = -np.sign(c6) * k_scale

    cache: dict = {}

    def integrand(u):
        # the real and imaginary passes visit the same nodes; solve once
        if u not in cache:
            k = ks / u**2
            cache[u] = k * fn(k)
        return cache[u]

    nodes = 0
    parts = []
    errs = []
    for which in (np.real, np.imag):
        def g(u, which=which):
            return which(integrand(u))

        val, err, info = integrate.quad(
            g, 0.0, _U_CUT, points=[1.0], limit=400,
            epsabs=0.0, epsrel=rel_tol, full_output=True,
        )[:3]
        nodes += int(info["neval"])
        parts.append(val)
        errs.append(err)
    core = parts[0] + 1j * parts[1]
    tail, tail_bound = _tail(fn, ks, _U_CUT)
    pref = 4.0 * np.pi * eta * r_b**3 / 3.0
    value = pref * (core + tail)
    error = abs(pref) * (errs[0] + errs[1] + tail_bound)
    converged = error <= max(rel_tol * abs(value) * 10.0, 1e-300) or abs(value) == 0.0
    result = RadialQuadratureResult(value, error, nodes, converged)
    if not converged:
        raise QuadratureError(
            f"radial quadrature did not converge: value={value}, "
            f"error={error}, nodes={nodes}"
        )
    return result


def vdw_k_integral_reference(fn, c6: float, eta: float, k_scale: float,
                             prec_dps: int = 20) -> RadialQuadratureResult:
    """Same integral by mpmath tanh-sinh quadrature (independent node family)."""
    import mpmath as mp

    if c6 == 0.0:
        return RadialQuadratureResult(0.0, 0.0, 0, True)
    r_b = (abs(c6) / k_scale) ** (1.0 / 6.0)
    ks = -np.sign(c6) * k_scale

    with mp.workdps(prec_dps):
        def g(u):
            u = float(u)
            k = ks / u**2
            return mp.mpc(k * fn(k))

        core = mp.quad(g, [mp.mpf("1e-12"), 1.0, float(_U_CUT)])
        tail, tail_bound = _tail(fn, ks, _U_CUT)
        pref = 4.0 * np.pi * eta * r_b**3 / 3.0
        value = pref * (complex(core) + tail)
    return RadialQuadratureResult(value, abs(pref) * tail_bound, 0, True)
