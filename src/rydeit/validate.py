"""Built-in validation suites (fast structural checks, full physics checks).

Each check returns (passed: bool, detail); the CLI prints one line per
check, and tests/test_validate.py runs each check as one test. The fast
suite runs in a few seconds; the full suite adds the exact two-atom
master-equation comparisons, the solver's weak-probe coefficients (exact,
read off a contour in the complex probe amplitude) and reference quadratures.
"""
from __future__ import annotations

import io

import numpy as np

from .blochgen import (
    _AM,
    _AP,
    _KDIAG,
    PAIR_LABELS,
    a0_matrix,
    canonical_pair,
    flip_pair,
)
from .collisional import (
    F_lambda,
    F_lambda_quadrature,
    _newton,
    feedback_map,
    solve_collisional_integrals,
    solve_interacting,
    solve_pair_at_k,
)
from .noninteracting import (
    SingleAtomState,
    perturbative_coefficients,
    steady_state_three_level,
    steady_state_two_level,
)
from .observables import observable_set
from .oracle import (
    _contour_coefficients,
    _steady_state,
    two_atom_steady_state,
)
from .params import (
    AtomParams,
    InteractionParams,
    StatePreset,
    blockade_radius,
    effective_T,
    relaxation_constants,
    vdw_potential,
)
from .perturbative import (
    collisional_integral_V13_order3,
    nb_closed_form,
    pair_correlators_order2,
    pair_correlators_order3,
)
from .quadrature import vdw_k_integral, vdw_k_integral_reference
from .scan import ScanConfig, _s_slope_third_order, run_scan, write_csv

__all__ = ["run_suite", "FAST_CHECKS", "FULL_CHECKS"]

_P50 = StatePreset(50)


def _params(wp=0.0, **kw):
    return AtomParams(omega_p=wp, omega_c=_P50.omega_c, **kw)


def check_first_order_closed_forms():
    p = _params()
    rc = relaxation_constants(p)
    pc = perturbative_coefficients(p)
    den = rc.Gamma12 * rc.Gamma13 + p.omega_c**2
    err = max(
        abs(pc.s12_1 - (-1j * rc.Gamma13 / den)),
        abs(pc.s13_1 - (-p.omega_c / den)),
        abs(pc.s21_1 - np.conj(pc.s12_1)),
    )
    return err < 1e-14, f"max deviation {err:.2e}"


def check_pair_conjugation_closure():
    p = _params(wp=0.4 + 0.1j)
    amat = a0_matrix(p) + p.omega_p * _AP + np.conj(p.omega_p) * _AM
    worst = 0.0
    idx = {lab: i for i, lab in enumerate(PAIR_LABELS)}
    for r, lab in enumerate(PAIR_LABELS):
        fr = idx[flip_pair(lab)]
        for c, lab2 in enumerate(PAIR_LABELS):
            fc = idx[flip_pair(lab2)]
            worst = max(worst, abs(amat[r, c] - np.conj(amat[fr, fc])))
    return worst < 1e-12, f"max |A - conj(flip(A))| = {worst:.2e}"


def check_pq_partition():
    n_p = int(np.count_nonzero(_KDIAG))
    n_q = len(_KDIAG) - n_p
    return (n_p, n_q) == (10, 26), f"{n_p} P rows, {n_q} Q rows"


def check_noninteracting_s_identity():
    worst = 0.0
    for wp2 in (0.1, 0.5):
        p = _params(wp=np.sqrt(wp2))
        st, _ = solve_interacting(p, InteractionParams(c6=0.0))
        worst = max(worst, abs(observable_set(p, st, steady_state_three_level(p),
                                           steady_state_two_level(p)).S - 1.0))
    return worst < 1e-9, f"max |S - 1| = {worst:.2e} at C6 = 0"


def check_nb_closed_form_vs_quadrature():
    p = _params()
    inter = InteractionParams(c6=_P50.c6)
    nb = nb_closed_form(p, inter)
    ib = F_lambda_quadrature(1j * effective_T(p), inter, rel_tol=1e-8)
    rel = abs(nb - ib) / abs(nb)
    return bool(rel < 1e-6), f"|n_b - I_b|/|n_b| = {rel:.2e}"


def check_f_lambda_closed_form():
    inter = InteractionParams(c6=_P50.c6)
    worst = 0.0
    for lam in (1.0 + 2.0j, -3.0 + 0.5j, 0.2 - 4.0j, 1000.0 + 1.0j):
        closed = F_lambda(lam, inter)
        quad = F_lambda_quadrature(lam, inter)
        worst = max(worst, abs(closed - quad) / abs(closed))
    return bool(worst < 1e-6), f"max relative deviation {worst:.2e}"


def check_schur_vs_direct():
    # nonzero gamma33 so the Q block is regular without regularization
    p = _params(wp=0.3, gamma33=0.05)
    v4 = np.zeros(4, dtype=complex)
    lhs = feedback_map(p, p.omega_p, np.conj(p.omega_p), InteractionParams(c6=_P50.c6))(v4)
    t_scale = abs(effective_T(p))
    labels = (((1, 3), (3, 3)), ((3, 1), (3, 3)), ((2, 3), (3, 3)), ((3, 2), (3, 3)))
    worst = 0.0
    for want, lab in zip(lhs, labels):
        res = vdw_k_integral(
            lambda k, lab=lab: solve_pair_at_k(p, k, v4=v4)[lab],
            _P50.c6, 0.04, t_scale,
        )
        worst = max(worst, abs(want - res.value) / max(abs(res.value), 1e-300))
    return bool(worst < 1e-6), f"spectral vs direct 36x36 quadrature: {worst:.2e}"


def check_solved_v_conjugation():
    p = _params(wp=np.sqrt(0.3))
    _, v = solve_interacting(p, InteractionParams(c6=_P50.c6))
    scale = max(abs(v.v13), 1e-300)
    dev = max(abs(v.v31 - np.conj(v.v13)), abs(v.v32 - np.conj(v.v23))) / scale
    return bool(dev < 1e-8), f"relative conjugation deviation {dev:.2e}"


def check_scan_determinism():
    cfg = ScanConfig(state=50, omega_p2_start=0.0, omega_p2_stop=0.4,
                     omega_p2_count=4)
    csvs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_scan(cfg), cfg.metadata_dict(), buf)
        csvs.append(buf.getvalue())
    ok = csvs[0] == csvs[1]
    return ok, "byte-identical CSV in two runs" if ok else "MISMATCH"


def check_oracle_factorization():
    p = _params(wp=0.35)
    st = two_atom_steady_state(p, k=0.0)
    single = steady_state_three_level(p)
    worst = 0.0
    for l1 in ((1, 2), (3, 3), (2, 3)):
        for l2 in ((2, 1), (2, 2), (1, 3)):
            pa = st.pair_average(l1, l2)
            worst = max(worst, abs(pa - single[l1] * single[l2]))
    return worst < 1e-10, f"max |<ab><mn> - <ab,mn>| = {worst:.2e} at k = 0"


def _oracle_vs_cascade(p, c6, rfacs):
    """Max relative deviation of the oracle's a^2 (a^3) coefficient of ss_{13,31}
    (ss_{13,33}) from the cascade at rfacs * r_b, and max wrong-grade ratio."""
    rb = blockade_radius(p, c6)
    worst = wrong = 0.0
    for rfac in rfacs:
        k = vdw_potential(rfac * rb, c6)
        o2 = pair_correlators_order2(p, k)[canonical_pair((1, 3), (3, 1))]
        o3 = pair_correlators_order3(p, k)[canonical_pair((1, 3), (3, 3))]

        def f(a, k=k):
            st = _steady_state(p, k, a, a)
            return [st.pair_average((1, 3), (3, 1)), st.pair_average((1, 3), (3, 3))]

        c, w = _contour_coefficients(f, (2, 3), 0.1, 16)
        worst = max(worst, abs(c[2, 0] - o2) / abs(o2), abs(c[3, 1] - o3) / abs(o3))
        wrong = max(wrong, w.max())
    return float(worst), float(wrong)


def check_oracle_vs_cascade():
    worst, wrong = _oracle_vs_cascade(_params(), _P50.c6, (0.5, 1.5))
    return (worst < 1e-9 and wrong < 1e-9,
            f"max relative deviation {worst:.2e}, wrong-grade ratio {wrong:.2e}")


def _solver_contour(p, interaction):
    """Relative deviations of the solver's a^3 coefficient of V13 from the
    pole sum and of its slope of S, Re[c3(sigma12) - s12_3] / Re[s12_1 +
    i/Gamma12], from ``_s_slope_third_order``; the wrong-grade ratio; the
    closure. V leaves the solver's root at a = r and is carried round |a| = r
    by ``_newton`` on G at wp = wpc = a; closure is its return distance."""
    r, nodes, sub = 0.05, 32, 4
    v_start = solve_collisional_integrals(p.with_omega_p(r), interaction).v4
    tol = 1e-12 * np.max(np.abs(v_start))
    a_now, v = complex(r), v_start

    def f(a):
        nonlocal a_now, v
        step = (a / a_now) ** (1.0 / sub)
        for _ in range(sub):
            a_now *= step
            g = feedback_map(p, a_now, a_now, interaction)
            v = _newton(g, v, tol)[0]
        return [v[0], SingleAtomState(values=g.sigma(v)).sigma12]

    c, wrong = _contour_coefficients(f, (3, 1), r, nodes)
    f(complex(r))
    pc = perturbative_coefficients(p)
    v13_3 = collisional_integral_V13_order3(p, pc, interaction)
    chi_gap = (pc.s12_1 + 1j / relaxation_constants(p).Gamma12).real
    slope, pred = (c[3, 1] - pc.s12_3).real / chi_gap, _s_slope_third_order(p, interaction)
    return tuple(float(x) for x in (
        abs(c[3, 0] - v13_3) / abs(v13_3), abs(slope - pred) / abs(pred), max(wrong),
        np.max(np.abs(v - v_start)) / np.max(np.abs(v_start))))


def check_weak_probe_v13():
    # the bias (about 3e-5) of the solver's 1e-6 regularization bounds gamma33 = 0
    inter = InteractionParams(c6=_P50.c6)
    ok, parts = True, []
    for gamma33, bound, bound_contour in ((0.0, 1e-3, 1e-6), (0.01, 1e-9, 1e-10)):
        v13, slope, wrong, closure = _solver_contour(_params(gamma33=gamma33), inter)
        ok = ok and max(v13, slope) < bound and max(wrong, closure) < bound_contour
        parts.append(f"gamma33 = {gamma33}: V13 {v13:.2e}, slope {slope:.2e} "
                     f"(wrong-grade ratio {wrong:.1e}, closure {closure:.1e})")
    return ok, "contour vs third order: " + "; ".join(parts)


def check_quadrature_reference():
    t = effective_T(_params())

    def fn(k):
        return 1j / (t + 1j * k)

    a = vdw_k_integral(fn, _P50.c6, 0.04, abs(t)).value
    b = vdw_k_integral_reference(fn, _P50.c6, 0.04, abs(t)).value
    rel = abs(a - b) / abs(a)
    return bool(rel < 1e-8), f"adaptive vs tanh-sinh quadrature: {rel:.2e}"


FAST_CHECKS = (
    ("first-order closed forms", check_first_order_closed_forms),
    ("pair-equation conjugation closure", check_pair_conjugation_closure),
    ("P/Q partition 10/26", check_pq_partition),
    ("non-interacting S identity", check_noninteracting_s_identity),
    ("n_b closed form vs quadrature", check_nb_closed_form_vs_quadrature),
    ("resolvent integral closed form", check_f_lambda_closed_form),
    ("spectral solver vs direct pair solve", check_schur_vs_direct),
    ("solved integrals conjugation symmetry", check_solved_v_conjugation),
    ("scan determinism across runs", check_scan_determinism),
)

FULL_CHECKS = FAST_CHECKS + (
    ("two-atom oracle factorization at k=0", check_oracle_factorization),
    ("two-atom oracle vs pair cascade", check_oracle_vs_cascade),
    ("weak-probe V13 vs third-order integral", check_weak_probe_v13),
    ("quadrature vs independent reference", check_quadrature_reference),
)


def run_suite(suite: str):
    """Run a named suite; yields (name, passed, detail) tuples."""
    checks = {"fast": FAST_CHECKS, "full": FULL_CHECKS}.get(suite)
    if checks is None:
        raise ValueError(f"unknown suite {suite!r}; use 'fast' or 'full'")
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
