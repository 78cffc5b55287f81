"""Weak-probe pair cascade, collisional integral and closed-form observables."""
import cmath
import dataclasses
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from rydeit import (
    AtomParams,
    InteractionParams,
    SingularParameterError,
    StatePreset,
    blockade_radius,
    effective_T,
    perturbative_coefficients,
)
from rydeit.blochgen import (
    _AM,
    _AP,
    _KDIAG,
    _SRCM,
    _SRCP,
    PAIR_INDEX,
    SINGLE_INDEX,
    _pair_matrices,
    canonical_pair,
    grade_order,
)
from rydeit.perturbative import (
    BranchAmbiguityError,
    ORDER2_LABELS,
    ORDER3_NETP1_LABELS,
    chi3_interacting,
    collisional_integral_V13_order3,
    collisional_integral_V13_order3_quadrature,
    nb_closed_form,
    pair_correlators_order2,
    pair_correlators_order3,
    ss1333_ladder_approximation,
    ss1333_order3,
)
from rydeit import perturbative as perturbative_module
from rydeit.noninteracting import perturbative_column
from rydeit.params import delta3_column
from rydeit.perturbative import (
    _A0_BLOCKS,
    _CASCADE,
    _cascade_sources,
    _one_kernel,
    _pole_sum,
    _roots,
    _ss1333_kernel,
    _Ss1333Kernel,
)
from rydeit.quadrature import QuadratureError, vdw_k_integral, vdw_k_integral_reference
from rydeit.scan import ScanConfig, compute_row, run_scan
from test_blochgen import _PRESET_GRID, _random_params


class TestCascadeStructure:
    def test_graded_label_counts(self):
        assert len(ORDER2_LABELS) == 10
        assert len(ORDER3_NETP1_LABELS) == 8

    def test_factorization_at_zero_interaction(self, params50):
        pc = perturbative_coefficients(params50)
        first = {
            (1, 2): pc.s12_1, (1, 3): pc.s13_1,
            (2, 1): pc.s21_1, (3, 1): pc.s31_1,
        }
        second = {
            (2, 2): pc.s22_2, (3, 3): pc.s33_2,
            (2, 3): pc.s23_2, (3, 2): pc.s32_2,
        }
        o2 = pair_correlators_order2(params50, k=0.0)
        for lab, val in o2.items():
            l1, l2 = lab
            assert val == pytest.approx(first[l1] * first[l2], rel=1e-10)
        o3 = pair_correlators_order3(params50, k=0.0)
        for (l1, l2), val in o3.items():
            coh, pop = (l1, l2) if l1 in first else (l2, l1)
            assert val == pytest.approx(first[coh] * second[pop], rel=1e-10)

    def test_conjugation_between_net_plus_and_minus(self, params50):
        # ss_{13,31} is net 0 and must be |.|^2-like: conj-symmetric label
        k = -3.7
        o2 = pair_correlators_order2(params50, k)
        lab = canonical_pair((1, 3), (3, 1))
        flipped = canonical_pair((3, 1), (1, 3))
        assert lab == flipped
        diag = o2[canonical_pair((1, 3), (1, 3))]
        anti = o2[canonical_pair((3, 1), (3, 1))]
        assert anti == pytest.approx(np.conj(diag), rel=1e-12)


class TestClosedFormKernel:
    """The rational kernel against the full order-2/3 pair solves."""

    @pytest.mark.parametrize("n", [46, 50, 56, 61])
    @pytest.mark.parametrize("delta3", [-1.7, -1.0 / 3.0, 1.0 / 3.0, 1.9])
    def test_matches_full_cascade(self, n, delta3):
        p = AtomParams(omega_c=StatePreset(n).omega_c, delta3=delta3)
        t_scale = abs(effective_T(p))
        decades = t_scale * np.logspace(-4, 9, 14)
        lab = canonical_pair((1, 3), (3, 3))
        for k in np.concatenate([[0.0], decades, -decades]):
            want = pair_correlators_order3(p, k)[lab]
            got = ss1333_order3(p, k)
            assert abs(got - want) <= 1e-13 * abs(want), k

    @staticmethod
    def _kernel(**singular):
        fields = dict(
            d2=(-1j, 1j), w2=(0.5, 0.1, 0.2, 0.5), x2p=(1.0, 2.0),
            h0=(1.0, 1.0), hz=(0.3, 0.0, 0.0, 0.3),
            d3=(-1j, -1j), w3=(0.5, 0.0, 0.0, 0.5),
        )
        fields.update(singular)
        return _Ss1333Kernel.from_woodbury(**fields)

    @pytest.mark.parametrize("order,singular", [
        # 1 + k d w = 0 on both diagonal entries at k = 1
        (2, dict(d2=(1j, 1j), w2=(1j, 0.0, 0.0, 1j))),
        (3, dict(d3=(1j, 1j), w3=(1j, 0.0, 0.0, 1j))),
    ])
    def test_zero_determinant_is_a_typed_failure(self, order, singular):
        kernel = self._kernel(**singular)
        with pytest.raises(SingularParameterError, match=f"order-{order}.*k=1.0"):
            kernel(1.0)
        assert np.isfinite(kernel(0.5))

    @pytest.mark.parametrize("k", [np.inf, np.nan])
    def test_non_finite_determinant_is_a_typed_failure(self, k):
        with pytest.raises(SingularParameterError, match="order-2"):
            self._kernel()(k)

    def test_singular_k0_block_fails_at_table_build(self, params50, monkeypatch):
        column = delta3_column(params50)
        pc = perturbative_column(column)
        # a zero a0, then a0 = 1 on the order-2 rows only
        for order, blocks in ((2, (np.zeros((1, 10, 10)), np.zeros((1, 8, 8)))),
                              (3, (np.eye(10)[None], np.zeros((1, 8, 8))))):
            monkeypatch.setattr(perturbative_module, "_A0_BLOCKS", lambda params: blocks)
            with pytest.raises(SingularParameterError, match=f"order-{order} .* k=0"):
                _ss1333_kernel(column, pc)


class TestRationalStructure:
    def test_ss1333_is_rational_2_3_in_k(self, params50):
        """ss^(3)_{13,33}(k) = (a0 + a1 k + a2 k^2)/(1 + b1 k + b2 k^2 + b3 k^3).

        Fit the six coefficients on six nodes and check the residual on an
        independent dense grid.
        """
        t_scale = abs(effective_T(params50))
        nodes = -t_scale * np.array([0.1, 0.5, 2.0, 10.0, 80.0, 600.0])
        f = np.array([ss1333_order3(params50, k) for k in nodes])
        mat = np.column_stack([
            np.ones_like(nodes), nodes, nodes**2,
            -f * nodes, -f * nodes**2, -f * nodes**3,
        ])
        coef = np.linalg.solve(mat, f)

        def rational(k):
            num = coef[0] + coef[1] * k + coef[2] * k**2
            den = 1.0 + coef[3] * k + coef[4] * k**2 + coef[5] * k**3
            return num / den

        ks = -t_scale * np.logspace(-2, 3, 40)
        worst = max(
            abs(rational(k) - ss1333_order3(params50, k)) / abs(ss1333_order3(params50, k))
            for k in ks
        )
        assert worst < 1e-8

    def test_ladder_closed_form_is_exact_rational_1_1(self, params50):
        t = effective_T(params50)
        pc = perturbative_coefficients(params50)
        for k in (-0.1, -5.0, -500.0):
            want = pc.s13_1 * pc.s33_2 * t / (t + 1j * k)
            assert ss1333_ladder_approximation(params50, k) == pytest.approx(want)


class TestLadderRegime:
    def test_ladder_error_is_percent_level_in_dispersive_regime(self, params50):
        """Characterizes the closure at the n = 50 working point (omega_c = 3,
        delta2 = -25, omega_c/|delta2| = 0.12), before its (omega_c/delta2)^2
        error law is asymptotic: the single-pole closure deviates from the
        exact cascade by a five-to-fifteen percent pointwise error there.
        Its accuracy in the regime it is derived for is checked by
        acceptance criterion 5."""
        t_scale = abs(effective_T(params50))
        errs = [
            abs(ss1333_ladder_approximation(params50, k) - ss1333_order3(params50, k))
            / abs(ss1333_order3(params50, k))
            for k in -t_scale * np.logspace(-2, 3, 30)
        ]
        assert 0.05 < max(errs) < 0.2
        # the closure is exact in the weak-interaction limit but saturates
        # at a finite error deep in the blockade
        assert errs[0] < 0.01
        assert errs[-1] == pytest.approx(max(errs), rel=0.05)


class TestCollisionalIntegral:
    def test_v13_order3_value(self, params50, inter50):
        v, res = collisional_integral_V13_order3_quadrature(
            params50, perturbative_coefficients(params50), inter50)
        assert res.converged
        # pinned value at the n = 50 defaults (regression guard)
        assert v == pytest.approx(0.62624 - 0.02398j, rel=2e-4)

    @pytest.mark.parametrize("n,want", [
        (50, 0.6262402430222866 - 0.023980372353188943j),
        (61, 2.1694297658356243 - 0.12505339715970545j),
    ])
    def test_work_counts_are_unchanged(self, n, want):
        """The node count pins the adaptive quadrature path at delta3 = 1/3."""
        preset = StatePreset(n)
        p = AtomParams(omega_c=preset.omega_c, delta3=1.0 / 3.0)
        v, res = collisional_integral_V13_order3_quadrature(
            p, perturbative_coefficients(p), InteractionParams(c6=preset.c6))
        assert res.nodes == 672
        assert abs(v - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("n,want", [
        (50, 0.6262402430222824 - 0.023980372353187597j),
        (61, 2.169429765835607 - 0.12505339715969077j),
    ])
    def test_pole_sum_value(self, n, want):
        """The pole sum at the points of the quadrature pins above."""
        preset = StatePreset(n)
        p = AtomParams(omega_c=preset.omega_c, delta3=1.0 / 3.0)
        v = collisional_integral_V13_order3(
            p, perturbative_coefficients(p), InteractionParams(c6=preset.c6))
        assert abs(v - want) <= 1e-13 * abs(want)

    def test_zero_c6(self, params50):
        pc = perturbative_coefficients(params50)
        v = collisional_integral_V13_order3(params50, pc, InteractionParams(c6=1e-300))
        assert abs(v) < 1e-140
        assert collisional_integral_V13_order3(params50, pc, InteractionParams(c6=0.0)) == 0

    def test_chi3_direct_map_agrees_with_cascade(self, params50, inter50):
        r = chi3_interacting(params50, inter50)
        assert r.s12_3_collisional == pytest.approx(
            r.s12_3_collisional_direct, rel=1e-6
        )
        assert r.s12_3_total == pytest.approx(
            r.s12_3_noninteracting + r.s12_3_collisional, rel=1e-10
        )


def _kernel_by_full_blocks(a2, kdiag2, src2, a3, kdiag3, src3, from_o2):
    """The closed-form kernel from the full k = 0 blocks, with unit columns
    cut from identity matrices (the construction the production builder's
    import-time constants reproduce)."""
    p2 = np.flatnonzero(kdiag2)
    target = ORDER3_NETP1_LABELS.index(canonical_pair((1, 3), (3, 3)))
    p3 = [target] + [i for i in np.flatnonzero(kdiag3) if i != target]
    sol2 = np.linalg.solve(a2, np.column_stack([-src2, np.eye(len(src2))[:, p2]]))
    x2, z2 = sol2[:, 0], sol2[:, 1:]
    rhs3 = np.column_stack([-src3 - from_o2 @ x2, -from_o2 @ z2,
                            np.eye(len(src3))[:, p3]])
    sol3 = np.linalg.solve(a3, rhs3)[p3]

    def row(arr):  # a column of one, as production passes it
        return arr.reshape(1, -1)

    return _Ss1333Kernel.from_woodbury(
        d2=kdiag2[p2], w2=row(z2[p2]), x2p=row(x2[p2]),
        h0=row(sol3[:, 0]), hz=row(sol3[:, 1:3]),
        d3=kdiag3[p3], w3=row(sol3[:, 3:]),
    )


def _cascade_tables_by_label_loops(params, pc):
    """The k = 0 blocks, sources and coupling the full-solve references read
    (``_cascade_reads``) and the kernel, as built label by label from the
    grading rules, a0 from the generic loop (the construction the hoisted
    constants and the a0 gather reproduce)."""
    a0 = _pair_matrices(0.0, 0.0, params)[0]
    x1 = {
        (1, 2): pc.s12_1, (1, 3): pc.s13_1,
        (2, 1): pc.s21_1, (3, 1): pc.s31_1,
    }
    x2 = {
        (2, 2): pc.s22_2, (3, 3): pc.s33_2,
        (2, 3): pc.s23_2, (3, 2): pc.s32_2,
    }
    o2 = np.array([PAIR_INDEX[lab] for lab in ORDER2_LABELS])
    o3 = np.array([PAIR_INDEX[lab] for lab in ORDER3_NETP1_LABELS])
    src2 = np.zeros(len(o2), dtype=complex)
    for i, lab in enumerate(ORDER2_LABELS):
        r = PAIR_INDEX[lab]
        nu = grade_order(lab)[0]
        for m, (net_m, ord_m) in ((m, grade_order(m)) for m in x1):
            col = SINGLE_INDEX[m]
            if ord_m == 1 and net_m == nu - 1:
                src2[i] += _SRCP[r, col] * x1[m]
            if ord_m == 1 and net_m == nu + 1:
                src2[i] += _SRCM[r, col] * x1[m]
    src3 = np.zeros(len(o3), dtype=complex)
    for i, lab in enumerate(ORDER3_NETP1_LABELS):
        r = PAIR_INDEX[lab]
        for m, val in x2.items():
            src3[i] += _SRCP[r, SINGLE_INDEX[m]] * val
    from_o2 = np.zeros((len(o3), len(o2)), dtype=complex)
    for j, lab2 in enumerate(ORDER2_LABELS):
        net2 = grade_order(lab2)[0]
        c = PAIR_INDEX[lab2]
        if net2 == 0:
            from_o2[:, j] = _AP[o3, c]
        elif net2 == 2:
            from_o2[:, j] = _AM[o3, c]
    o2_a = a0[np.ix_(o2, o2)]
    o3_a = a0[np.ix_(o3, o3)]
    tables = dict(
        o2_a=o2_a, o2_kdiag=_KDIAG[o2], o2_src=src2,
        o3_a=o3_a, o3_kdiag=_KDIAG[o3], o3_src_single=src3,
        o3_from_o2=from_o2,
    )
    try:
        kernel = _kernel_by_full_blocks(
            o2_a, _KDIAG[o2], src2, o3_a, _KDIAG[o3], src3, from_o2)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError(str(exc)) from exc
    return SimpleNamespace(**tables, ss1333=kernel)


def _cascade_reads(params, pc):
    """What ``pair_correlators_order2/3`` read from the a0 gather and
    ``_CASCADE``, under the names of the label-loop reference."""
    a2, a3 = _A0_BLOCKS(params)
    src2, src3 = _cascade_sources(pc)
    return dict(
        o2_a=a2, o2_kdiag=_CASCADE.kdiag2, o2_src=np.array(src2),
        o3_a=a3, o3_kdiag=_CASCADE.kdiag3,
        o3_src_single=np.array(src3), o3_from_o2=_CASCADE.from_o2,
    )


_GRIDS = [
    pytest.param(_PRESET_GRID, id="presets-x-81-delta3"),
    pytest.param(_random_params(), id="200-seeded-random"),
]


class TestHoistedCascadeTables:
    """The import-time constants give byte-identical cascade tables and kernel."""

    @pytest.mark.parametrize("params", _GRIDS)
    def test_matches_label_loops(self, params):
        compared = 0
        for p in params:
            try:
                pc = perturbative_coefficients(p)
            except SingularParameterError:
                continue  # no single-atom sources, so no cascade to compare
            got = _cascade_reads(p, pc)
            want = _cascade_tables_by_label_loops(p, pc)
            assert len(got) == 7
            for name, a in got.items():
                assert a.tobytes() == getattr(want, name).tobytes(), name
            compared += 1
        assert compared >= len(params) // 2

    @pytest.mark.parametrize("params", _GRIDS + [pytest.param(
        # omega_c = gamma13 = 0 leaves ss_{13,31} with a zero k = 0 diagonal,
        # while the single-atom system stays regular
        [AtomParams(omega_c=0.0, gamma13=0.0, gamma33=0.5, delta3=d3)
         for d3 in (-0.7, 0.4, 1.3)], id="singular-pair-block")])
    def test_production_kernel_matches_label_loops(self, params, monkeypatch):
        """The kernel ``collisional_integral_V13_order3`` sums over, caught
        on its way into the pole sum; a singular k = 0 block raises there
        as it does in the reference."""
        built = []

        def record(kernel, interaction):
            built.append(kernel)
            return np.zeros(1, dtype=complex)

        monkeypatch.setattr(perturbative_module, "_pole_sum", record)
        inter = InteractionParams(c6=5000.0)
        compared = singular = 0
        for p in params:
            try:
                pc = perturbative_coefficients(p)
            except SingularParameterError:
                continue
            try:
                want = _cascade_tables_by_label_loops(p, pc).ss1333
            except SingularParameterError:
                with pytest.raises(SingularParameterError, match="k=0"):
                    collisional_integral_V13_order3(p, pc, inter)
                singular += 1
                continue
            collisional_integral_V13_order3(p, pc, inter)
            got = built.pop()
            for f in dataclasses.fields(_Ss1333Kernel):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.shape == b.shape and a.shape[0] == 1, f.name
                assert a.tobytes() == b.tobytes(), f.name
            compared += 1
        assert compared + singular >= len(params) // 2 and not built


class TestReferencesOffProductionPath:
    """The weak-probe row and V13^(3) never touch the full-solve references."""

    @pytest.fixture(autouse=True)
    def _forbid_references(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a reference path ran on the production path")

        for name in ("pair_correlators_order2", "pair_correlators_order3"):
            for modname, module in list(sys.modules.items()):
                if modname.split(".")[0] == "rydeit" and hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)

    @pytest.mark.parametrize("n,want", [
        (50, 0.6262402430222823 - 0.023980372353187694j),
        (61, 2.1694297658356074 - 0.12505339715969072j),
    ])
    def test_collisional_integral(self, n, want):
        preset = StatePreset(n)
        p = AtomParams(omega_c=preset.omega_c, delta3=1.0 / 3.0)
        got = collisional_integral_V13_order3(
            p, perturbative_coefficients(p), InteractionParams(c6=preset.c6))
        assert got == want

    def test_weak_probe_row(self):
        cfg = ScanConfig(state=61, omega_p2_start=0.0, omega_p2_stop=0.0,
                         omega_p2_count=1)
        row = compute_row(cfg, -0.35, 0.0)
        assert row.flag == ""
        assert (row.chi_re, row.chi_im) == (-0.07248976938805651, -0.028859309536835232)
        assert (row.nb_re, row.nb_im) == (36.012055328200226, -115.02855587536713)
        assert row.nb_tilde == -126.34686554958672


def _synthetic_kernel(d2, w2, d3, w3):
    return _Ss1333Kernel.from_woodbury(
        d2=d2, w2=w2, x2p=(1.0, 2.0), h0=(1.0, 1.0 + 0.5j),
        hz=(0.3, 0.1, 0.2j, 0.3), d3=d3, w3=w3,
    )


def _column(*kernels):
    """The kernel column whose rows are ``kernels``."""
    return _Ss1333Kernel(*(np.stack([getattr(k, f.name) for k in kernels])
                           for f in dataclasses.fields(_Ss1333Kernel)))


def _kernel_with_poles(roots2, roots3, num=(1.0, 2.0 + 0.5j, 0.3, 0.1j)):
    """A column of one kernel num(k) / (det2 det3), each determinant
    (1 - k/r_a)(1 - k/r_b) with the given roots."""
    dets = [(-(1.0 / ra + 1.0 / rb), 1.0 / (ra * rb)) for ra, rb in (roots2, roots3)]
    return _Ss1333Kernel(*(np.array([c], dtype=complex) for c in (num, *dets)))


def _mp_pole_sum(kernel, interaction, dps):
    """The residue sum of one kernel row, at ``dps`` digits: num(rho) /
    (a2 b2 prod (rho - other)) F(rho) summed over the four poles of the
    row's coefficients, which must be distinct at that precision."""
    with mpmath.workdps(dps):
        num = [mpmath.mpc(c) for c in kernel.num.tolist()]
        poles, lead = [], 1
        for a1, a2 in (kernel.det2.tolist(), kernel.det3.tolist()):
            a1, a2 = mpmath.mpc(a1), mpmath.mpc(a2)
            s = mpmath.sqrt(a1 * a1 - 4 * a2)
            q = -(a1 + s) / 2 if abs(a1 + s) >= abs(a1 - s) else -(a1 - s) / 2
            poles += [q / a2, 1 / q]
            lead *= a2
        scale = 2 * mpmath.pi**2 * mpmath.mpf(interaction.eta) / 3
        total = 0
        for i, rho in enumerate(poles):
            rest = lead
            for j, other in enumerate(poles):
                if j != i:
                    rest *= rho - other
            value = num[0] + rho * (num[1] + rho * (num[2] + rho * num[3]))
            total += value / rest * scale * mpmath.sqrt(mpmath.mpf(interaction.c6) / rho)
        return complex(total)


# (d, w) of a determinant (1 + d0 w00 k)(1 + d1 w11 k) - d0 d1 w01 w10 k^2:
# roots 2 and 4, 2 and 8, a double root at 2 (all exact in binary), 3 and 5
_ROOTS_2_4 = ((1.0, 1.0), (-0.5, 0.3, 0.0, -0.25))
_ROOTS_2_8 = ((1.0, 1.0), (-0.5, 0.2, 0.0, -0.125))
_DOUBLE_2 = ((1.0, 1.0), (-0.5, 0.5, 0.0, -0.5))
_ROOTS_3_5 = ((1.0, 1.0), (-0.2, 0.4, 0.0, -1.0 / 3.0))

# a root shared by det2 and det3, a double root, and both at once, each
# split by eps
_Z = 2.0 + 1.0j
_NEAR_COINCIDENT = {
    "shared": lambda eps: ((_Z, 4.0), (_Z + eps, 8.0)),
    "double": lambda eps: ((_Z, _Z + eps), (3.0, 5.0)),
    "triple": lambda eps: ((_Z, _Z + eps), (_Z - 1j * eps, 8.0)),
}


class TestPoleSum:
    """V13^(3) as a sum over the kernel poles against radial quadrature
    and an mpmath residue sum."""

    def test_matches_quadrature_on_preset_grid(self):
        worst = 0.0
        for n in (46, 50, 56, 61):
            preset = StatePreset(n)
            inter = InteractionParams(c6=preset.c6)
            for d3 in np.linspace(-2.0, 2.0, 81):
                p = AtomParams(omega_c=preset.omega_c, delta3=float(d3))
                pc = perturbative_coefficients(p)
                want, _ = collisional_integral_V13_order3_quadrature(p, pc, inter)
                got = collisional_integral_V13_order3(p, pc, inter)
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-9

    @pytest.mark.parametrize("n,delta3", [
        (46, -1.7), (50, -1.0 / 3.0), (56, 1.0 / 3.0), (61, 1.9),
    ])
    def test_matches_tanh_sinh_reference(self, n, delta3):
        preset = StatePreset(n)
        p = AtomParams(omega_c=preset.omega_c, delta3=delta3)
        inter = InteractionParams(c6=preset.c6)
        pc = perturbative_coefficients(p)
        want = vdw_k_integral_reference(
            _one_kernel(p, pc), inter.c6, inter.eta, abs(effective_T(p)), prec_dps=30,
        ).value
        got = collisional_integral_V13_order3(p, pc, inter)
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_matches_mpmath_on_preset_grid(self):
        """4 presets x 81 delta3 x gamma33 in {0, 0.01} against a 40-digit
        residue sum of the same coefficients. The median bound is the
        median of the simple-pole residue sum in double precision on this
        grid."""
        errors = []
        for n in (46, 50, 56, 61):
            preset = StatePreset(n)
            inter = InteractionParams(c6=preset.c6)
            for gamma33 in (0.0, 0.01):
                column = delta3_column(AtomParams(omega_c=preset.omega_c, gamma33=gamma33),
                                       np.linspace(-2.0, 2.0, 81))
                kernel = _ss1333_kernel(column, perturbative_column(column))
                for i, got in enumerate(_pole_sum(kernel, inter)):
                    want = _mp_pole_sum(kernel[i], inter, dps=40)
                    errors.append(abs(got - want) / abs(want))
        assert len(errors) == 648
        assert np.median(errors) <= 6.364e-16
        assert max(errors) <= 1e-14

    @pytest.mark.parametrize("det2,det3,order", [
        pytest.param(_DOUBLE_2, _ROOTS_3_5, 2, id="double-root-det2"),
        pytest.param(_ROOTS_3_5, _DOUBLE_2, 2, id="double-root-det3"),
        pytest.param(_ROOTS_2_4, _ROOTS_2_8, 2, id="shared-root"),
        pytest.param(_DOUBLE_2, _ROOTS_2_8, 3, id="double-and-shared"),
    ])
    def test_confluent_poles_match_quadrature(self, det2, det3, order):
        """The pole at k = 2 of the given order: ``_roots`` returns it that
        many times, exactly equal."""
        kernel = _column(_synthetic_kernel(*det2, *det3))
        roots = np.concatenate([*_roots(*kernel.det2.T), *_roots(*kernel.det3.T)])
        assert roots[np.abs(roots - 2.0) < 0.5].tolist() == [2.0] * order
        inter = InteractionParams(c6=5000.0)
        want = vdw_k_integral(kernel[0], inter.c6, inter.eta, 2.0, rel_tol=1e-11).value
        got = _pole_sum(kernel, inter)[0]
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_column_matches_quadrature(self):
        """The stacked pole sum of a column that mixes generic, confluent
        and production kernels gives each row's adaptive quadrature."""
        synthetic = [_synthetic_kernel(*det2, *det3) for det2, det3 in (
            (_ROOTS_2_4, _ROOTS_3_5), (_DOUBLE_2, _ROOTS_3_5), (_ROOTS_3_5, _DOUBLE_2),
            (_ROOTS_3_5, _ROOTS_2_8), (_ROOTS_2_4, _ROOTS_2_8), (_DOUBLE_2, _ROOTS_2_8))]
        p = AtomParams(omega_c=StatePreset(50).omega_c)
        column = delta3_column(p, [-1.0, 0.5])
        production = _ss1333_kernel(column, perturbative_column(column))
        stacked = _column(*synthetic[:3], production[0], *synthetic[3:], production[1])
        for inter in (InteractionParams(c6=5000.0), InteractionParams(c6=36000.0, eta=0.1)):
            got = _pole_sum(stacked, inter)
            for i in range(len(got)):
                want = vdw_k_integral(stacked[i], inter.c6, inter.eta, 2.0,
                                      rel_tol=1e-11).value
                assert abs(got[i] - want) <= 1e-9 * abs(want), i

    def test_shared_complex_root_matches_quadrature(self):
        """det2 and det3 share the complex root 2 + i."""
        kernel = _kernel_with_poles((_Z, 4.0), (_Z, 8.0))
        want = vdw_k_integral(kernel[0], 5000.0, 0.04, 2.0, rel_tol=1e-11).value
        assert abs(want - (-40.42778270662421 + 34.22436381317009j)) <= 1e-9 * abs(want)
        got = _pole_sum(kernel, InteractionParams(c6=5000.0, eta=0.04))[0]
        assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("case", sorted(_NEAR_COINCIDENT))
    def test_near_coincident_poles_match_mpmath(self, case, eps):
        kernel = _kernel_with_poles(*_NEAR_COINCIDENT[case](eps))
        inter = InteractionParams(c6=5000.0, eta=0.04)
        want = _mp_pole_sum(kernel[0], inter, dps=60)
        got = _pole_sum(kernel, inter)[0]
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_wide_pole_spread_matches_mpmath(self):
        """Poles of moduli about 1, 3, 5 and 1.4e8: the terms of the sum
        cancel unless the poles are taken in ascending |rho|."""
        kernel = _column(_synthetic_kernel(
            (1.0, 1.0), (-0.5, 0.25, 1.0, -0.5 + 1e-8 * (1.0 + 1.0j)), *_ROOTS_3_5))
        moduli = np.sort(np.abs([*_roots(*kernel.det2.T), *_roots(*kernel.det3.T)]).ravel())
        assert moduli == pytest.approx([1.0, 3.0, 5.0, 1.4142e8], rel=1e-4)
        inter = InteractionParams(c6=5000.0, eta=0.04)
        want = _mp_pole_sum(kernel[0], inter, dps=60)
        got = _pole_sum(kernel, inter)[0]
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_denominator_of_lower_degree_raises(self):
        """W2 singular makes det2 linear (a2 = 0): ss stays finite at the
        core, where k ~ R^-6, so the radial integral diverges."""
        kernel = _column(_synthetic_kernel((1.0, 1.0), (-0.5, 0.25, 1.0, -0.5), *_ROOTS_3_5))
        assert kernel.det2[0, 1] == 0
        with pytest.raises(SingularParameterError, match="lower degree"):
            _pole_sum(kernel, InteractionParams(c6=5000.0))

    def test_quadrature_of_the_lower_degree_kernel_raises(self):
        """The adaptive quadrature does not report that divergent integral as
        converged: k ss grows from 1.24e9 to 1.24e15 between u = 1e-4 and
        u = 1e-7."""
        kernel = _column(_synthetic_kernel((1.0, 1.0), (-0.5, 0.25, 1.0, -0.5), *_ROOTS_3_5))
        with pytest.raises(QuadratureError, match="does not plateau"):
            vdw_k_integral(kernel[0], 5000.0, 0.04, 2.0)

    def test_pole_on_the_radial_path_raises_in_a_column(self):
        on_path = _synthetic_kernel((1.0, 1.0), (0.5, 0.3, 0.0, 0.25), *_ROOTS_2_8)
        generic = _synthetic_kernel(*_ROOTS_2_4, *_ROOTS_3_5)
        with pytest.raises(BranchAmbiguityError, match="C6/lambda"):
            _pole_sum(_column(generic, on_path), InteractionParams(c6=5000.0))

    def test_pole_on_the_radial_path_raises(self):
        # det2 = 1 + 0.75k + 0.125k^2: poles at k = -2, -4, where k(R) runs
        kernel = _column(_synthetic_kernel((1.0, 1.0), (0.5, 0.3, 0.0, 0.25), *_ROOTS_2_8))
        with pytest.raises(BranchAmbiguityError):
            _pole_sum(kernel, InteractionParams(c6=5000.0))

    def test_roots_are_free_of_cancellation(self):
        # 1 + 1e8 k + k^2: the small root -1e-8 would cancel in the textbook form
        small, large = sorted(_roots(np.array([1e8 + 0j]), np.array([1.0 + 0j])),
                              key=lambda r: abs(r[0]))
        assert small[0] == pytest.approx(-1e-8, rel=1e-15)
        assert large[0] == pytest.approx(-1e8, rel=1e-15)


class TestNoQuadratureOnProductionPath:
    """Weak-probe rows and chi3 evaluate V13^(3) without radial quadrature."""

    @pytest.fixture(autouse=True)
    def _forbid_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("vdw_k_integral called on the production path")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rydeit" and hasattr(module, "vdw_k_integral"):
                monkeypatch.setattr(module, "vdw_k_integral", forbidden)

    def test_weak_probe_scan(self):
        cfg = ScanConfig(state=61, omega_p2_start=0.0, omega_p2_stop=0.0,
                         omega_p2_count=1, delta3_start=-2.0, delta3_stop=2.0,
                         delta3_count=5)
        rows = run_scan(cfg)
        assert len(rows) == 5 and not any(r.flag for r in rows)
        assert all(np.isfinite(r.nb_re) for r in rows)

    def test_chi3_interacting(self, params50, inter50):
        r = chi3_interacting(params50, inter50)
        assert r.v13_3 != 0 and np.isfinite(r.v13_3)


class TestClosedFormObservables:
    def test_nb_value_at_n50(self, params50, inter50):
        nb = nb_closed_form(params50, inter50)
        assert nb == pytest.approx(22.135 - 1.815j, rel=1e-3)

    def test_nb_scales_as_sqrt_c6(self, params50):
        a = nb_closed_form(params50, InteractionParams(c6=5000.0))
        b = nb_closed_form(params50, InteractionParams(c6=20000.0))
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_branch_ambiguity_raises(self, inter50):
        # purely negative effective detuning puts iT/C6, and so C6/(iT), on the cut
        p = AtomParams(omega_c=0.0, gamma13=0.0, delta3=-1.0)
        with pytest.raises(BranchAmbiguityError, match="C6/lambda lies on"):
            nb_closed_form(p, inter50)

    def test_nb_without_interactions_is_zero(self, params50):
        """C6 = 0, which InteractionParams accepts, gives n_b = 0, as the
        resolvent integral does with interactions off."""
        assert nb_closed_form(params50, InteractionParams(c6=0.0)) == 0j

    @pytest.mark.parametrize("gamma13", [0.1, 0.01])
    @pytest.mark.parametrize("state", [46, 50, 56, 61])
    def test_nb_counts_the_atoms_in_a_blockade_sphere(self, state, gamma13):
        """n_b = (pi/2) N_bl exp(-i arg(iT)/2), N_bl = eta (4 pi/3) R_b^3 the
        atoms in a blockade sphere of radius R_b, |k(R_b)| = |T|: the
        closed form is exactly a blockade-sphere count."""
        preset = StatePreset(state)
        inter = InteractionParams(c6=preset.c6)
        worst = 0.0
        for delta3 in np.linspace(-2.0, 2.0, 41):
            p = AtomParams(omega_c=preset.omega_c, delta3=delta3, gamma13=gamma13)
            n_bl = inter.eta * 4.0 * np.pi / 3.0 * blockade_radius(p, inter.c6) ** 3
            want = np.pi / 2.0 * n_bl * cmath.exp(-0.5j * cmath.phase(1j * effective_T(p)))
            nb = nb_closed_form(p, inter)
            worst = max(worst, abs(nb - want) / abs(want))
        assert worst < 1e-14

    def test_blockade_radius_scale_consistency(self, params50, inter50):
        # n_b equals eta times an O(1) multiple of the blockade volume
        rb = blockade_radius(params50, inter50.c6)
        nb = nb_closed_form(params50, inter50)
        vol = 4.0 * np.pi * rb**3 / 3.0
        assert 0.5 < abs(nb) / (inter50.eta * vol) < 2.0
