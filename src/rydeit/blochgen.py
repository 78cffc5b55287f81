"""Generator for the single-atom and two-atom steady-state equation systems.

Everything is derived from the commutator algebra of the driven three-level
Hamiltonian (rotating frame, Omega_c real) plus phenomenological relaxation:

    d<A>/dt = i<[H, A]> + <R'(A)>,

where R' is the adjoint relaxation map reproducing the standard Bloch decay
structure (coherence ab decays at gamma_ab, populations 2 and 3 decay at
gamma22 and gamma33 into the ground state).

For two atoms the generator additionally applies, in this order:

1. the exact diagonal interaction commutator k [n_i n_j, .] (n = |3><3|),
2. the ladder closure for interaction sums over third atoms, which turns
   three-body averages into V_{a3} (or V_{3a}) times a single-atom average,
3. the trace substitution ss_{11,mn} = s_mn - ss_{22,mn} - ss_{33,mn}.

Probe-field dependence is kept formal: the Hamiltonian is linear in
(Omega_p, Omega_p*), so every generated coefficient is affine in the pair
and is stored as a matrix triple (c0, cp, cm) with

    coefficient(wp, wpc) = c0 + wp * cp + wpc * cm.

The evaluators take (wp, wpc) as independent inputs: physical callers pass
wpc = conj(wp), and wp = wpc = a continues every average analytically to a
complex a, whose Taylor coefficients are the weak-probe coefficients. The
same generated system serves the order-by-order perturbative cascade and
the full nonlinear collisional-integral solver.

Only c0 and a0 depend on the parameters, in closed form: with
g(a, b) = -Gamma_ab = -gamma_ab + i(Delta_b - Delta_a) of a row label,

    c0 = omega_c K8 + diag(g),    a0 = omega_c K36 + diag(g[l1] + g[l2]),

where K8 and K36 are the generic commutator loop (``_single_matrices``,
``_pair_matrices``) at omega_c = 1 with every rate and detuning 0. K and
all other parts are derived from that loop once, at import, and are
read-only; the loop stays as the test reference, to which the closed form
is byte-identical.

``_block_gather`` is the one place that forms c0 and a0. Production
gathers only the blocks it reads (``c0_blocks``/``a0_blocks``); the
references and the equation dump take the full matrices from the same
gather (``c0_matrix``/``a0_matrix``) and add the shared parts themselves,
C = c0 + wp _CP + wpc _CM and A = a0 + wp _AP + wpc _AM, with the sources
_S0 + wp _SP + wpc _SM and _SRC0 + wp _SRCP + wpc _SRCM, the feedback
coupling ``_V_COUPLING``, the interaction diagonal ``_KDIAG`` and the
ladder terms ``_LADDER``.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .params import AtomParams

__all__ = [
    "SINGLE_LABELS",
    "SINGLE_INDEX",
    "PAIR_LABELS",
    "PAIR_INDEX",
    "V_LABELS",
    "V_INDEX",
    "GeneratorError",
    "c0_matrix",
    "a0_matrix",
    "ladder_source",
    "P_LABELS",
    "Q_LABELS",
    "grade_order",
    "flip_label",
    "flip_pair",
    "canonical_pair",
    "dump_equations",
]

# Canonical single-atom unknown basis after eliminating sigma_11:
# coherences first (probe, Rydberg, Raman pairs), then populations.
SINGLE_LABELS: tuple = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (2, 2), (3, 3))
SINGLE_INDEX = {lab: i for i, lab in enumerate(SINGLE_LABELS)}

# The four collisional integrals that feed back into the equations.
V_LABELS: tuple = ((1, 3), (3, 1), (2, 3), (3, 2))
V_INDEX = {lab: i for i, lab in enumerate(V_LABELS)}


def canonical_pair(l1, l2):
    """Fixed canonical order for the symmetric correlator ss_{l1,l2}."""
    if SINGLE_INDEX[l1] <= SINGLE_INDEX[l2]:
        return (l1, l2)
    return (l2, l1)


def _build_pair_labels():
    labs = []
    for i, l1 in enumerate(SINGLE_LABELS):
        for l2 in SINGLE_LABELS[i:]:
            labs.append((l1, l2))
    return tuple(labs)


PAIR_LABELS: tuple = _build_pair_labels()
PAIR_INDEX = {lab: i for i, lab in enumerate(PAIR_LABELS)}
assert len(PAIR_LABELS) == 36

_ALL9 = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))
# the AtomParams field holding the decay rate gamma_ab of each single label
_RATE_FIELDS = tuple(f"gamma{min(a, b)}{max(a, b)}" for a, b in SINGLE_LABELS)


class GeneratorError(RuntimeError):
    """A structural invariant of the generated system failed."""


def flip_label(lab):
    a, b = lab
    return (b, a)


def flip_pair(pair):
    l1, l2 = pair
    return canonical_pair(flip_label(l1), flip_label(l2))


def grade_order(label):
    """(net probe-photon number, leading power of |Omega_p|) of a label.

    Accepts a single label (a, b) or a pair of labels. Coherences touching
    the ground state are first order and carry net +/-1; everything else is
    second order and photon-neutral. Pair grades add.
    """
    if label and isinstance(label[0], tuple):
        n1, o1 = grade_order(label[0])
        n2, o2 = grade_order(label[1])
        return (n1 + n2, o1 + o2)
    a, b = label
    if a == 1 and b != 1:
        return (+1, 1)
    if b == 1 and a != 1:
        return (-1, 1)
    return (0, 2)


def _unit(a, b):
    e = np.zeros((3, 3), dtype=complex)
    e[a - 1, b - 1] = 1.0
    return e


def _hamiltonian(wp, wpc, p: AtomParams):
    h = -p.delta2 * _unit(2, 2) - p.delta3 * _unit(3, 3)
    h = h + wpc * _unit(1, 2) + wp * _unit(2, 1)
    h = h + p.omega_c * (_unit(2, 3) + _unit(3, 2))
    return h


def _relax_adjoint(a_op, p: AtomParams):
    """Adjoint relaxation map on an operator expanded in the |a><b| basis."""
    out = np.zeros((3, 3), dtype=complex)
    for (a, b) in _ALL9:
        if a != b:
            rate = getattr(p, f"gamma{min(a, b)}{max(a, b)}")  # as in _RATE_FIELDS
            out[a - 1, b - 1] += -rate * a_op[a - 1, b - 1]
    out[1, 1] += -p.gamma22 * a_op[1, 1]
    out[2, 2] += -p.gamma33 * a_op[2, 2]
    # populations decay into the ground state (no gamma33 feed into level 2,
    # matching the Bloch structure where sigma22 has no gamma33 source);
    # adjoint picture: the sigma11 observable gains what the populations lose
    out[1, 1] += p.gamma22 * a_op[0, 0]
    out[2, 2] += p.gamma33 * a_op[0, 0]
    return out


def _drift(label, wp, wpc, p: AtomParams):
    """i[H, E_ab] + R'(E_ab), expanded in the |a><b| basis (3x3 array of
    coefficients: entry (c, d) multiplies sigma_cd)."""
    e = _unit(*label)
    h = _hamiltonian(wp, wpc, p)
    return 1j * (h @ e - e @ h) + _relax_adjoint(e, p)


def _drift_terms(label, wp, wpc, p: AtomParams):
    """The nonzero ((c, d), coefficient) entries of ``_drift``, row-major."""
    d = _drift(label, wp, wpc, p)
    terms = (((c, dd), d[c - 1, dd - 1]) for (c, dd) in _ALL9)
    return [(cd, coeff) for cd, coeff in terms if coeff != 0]


def _bare(omega_c: float) -> SimpleNamespace:
    """Stand-in parameters: omega_c, every rate and detuning 0."""
    return SimpleNamespace(omega_c=omega_c, delta2=0.0, delta3=0.0, gamma12=0.0,
                           gamma13=0.0, gamma23=0.0, gamma22=0.0, gamma33=0.0)


def _constant_parts(matrices, what: str):
    """K (omega_c = 1, zero probe), the zero constant source and the
    Omega_p, Omega_p* parts (omega_c = 0) of the loop ``matrices``."""
    k, s0 = matrices(0.0, 0.0, _bare(1.0))
    if np.any(s0 != 0):
        raise GeneratorError(f"{what} without a probe factor")
    cp, sp = matrices(1.0, 0.0, _bare(0.0))
    cm, sm = matrices(0.0, 1.0, _bare(0.0))
    parts = (k, cp, cm, s0, sp, sm)
    for arr in parts:
        arr.flags.writeable = False
    return parts


def _minus_gamma(p: AtomParams) -> np.ndarray:
    """g(a, b) = -Gamma_ab of each single label, shape (8,), or (n, 8) along
    a ``delta3_column``. A zero rate gives +0.0, as the loop's accumulation
    does, so omega_c = -0.0 stays byte-identical too."""
    delta = (0.0, p.delta2, p.delta3)
    g = np.empty(np.shape(p.delta3) + (8,), dtype=complex)
    g.real = [0.0 - getattr(p, rate) for rate in _RATE_FIELDS]
    for j, (a, b) in enumerate(SINGLE_LABELS):
        g.imag[..., j] = delta[b - 1] - delta[a - 1]
    return g


def _block_gather(k: np.ndarray, diag_of, row_sets):
    """A function of a ``delta3_column`` that returns the diagonal blocks
    (rows, rows) of omega_c k + diag(diag_of(g)), g = ``_minus_gamma``, one
    (n, len(rows), len(rows)) array per index array in ``row_sets`` (an
    ``AtomParams`` gives them without the row axis). The
    positions are worked out here, once; each call does the same
    elementwise sums as building the full matrix, so it gives the same
    bytes. Only the diagonal entries differ between rows of a column."""
    flat = np.concatenate([np.ravel_multi_index(np.ix_(rows, rows), k.shape).ravel()
                           for rows in row_sets])
    rows, cols = np.unravel_index(flat, k.shape)
    k_blocks = k.take(flat)
    on_diag = np.flatnonzero(rows == cols)
    diag_at = rows[on_diag]
    ends = np.cumsum([0] + [len(r) ** 2 for r in row_sets]).tolist()
    parts = [(slice(a, b), (len(r), len(r))) for a, b, r in zip(ends, ends[1:], row_sets)]
    for arr in (k_blocks, on_diag, diag_at):
        arr.flags.writeable = False

    def blocks(params) -> tuple:
        base = params.omega_c * k_blocks
        values = np.empty(np.shape(params.delta3) + base.shape, dtype=complex)
        values[...] = base + 0.0  # off the diagonal, diag(g) adds a zero
        values[..., on_diag] = base[on_diag] + diag_of(_minus_gamma(params))[..., diag_at]
        return tuple(values[..., part].reshape(values.shape[:-1] + shape)
                     for part, shape in parts)

    return blocks


# ---------------------------------------------------------------------------
# single-atom system
# ---------------------------------------------------------------------------

def _single_matrices(wp, wpc, p: AtomParams):
    c = np.zeros((8, 8), dtype=complex)
    s = np.zeros(8, dtype=complex)
    for r, lab in enumerate(SINGLE_LABELS):
        for (a, b), coeff in _drift_terms(lab, wp, wpc, p):
            if (a, b) == (1, 1):
                # sigma_11 = 1 - sigma_22 - sigma_33
                s[r] += coeff
                c[r, SINGLE_INDEX[(2, 2)]] -= coeff
                c[r, SINGLE_INDEX[(3, 3)]] -= coeff
            else:
                c[r, SINGLE_INDEX[(a, b)]] += coeff
    return c, s


def _single_v_coupling():
    v = np.zeros((8, 4), dtype=complex)
    for r, (a, b) in enumerate(SINGLE_LABELS):
        if a == 3 and b == 3:
            continue
        if a == 3:
            v[r, V_INDEX[(3, b)]] += 1j
        if b == 3:
            v[r, V_INDEX[(a, 3)]] += -1j
    v.flags.writeable = False
    return v


_K8, _CP, _CM, _S0, _SP, _SM = _constant_parts(_single_matrices, "constant source")
_V_COUPLING = _single_v_coupling()


def c0_blocks(*row_sets):
    """``_block_gather`` of c0 = omega_c K8 + diag(g): its diagonal blocks
    at each row of a ``delta3_column``, built from blocks of K8 without
    forming c0."""
    return _block_gather(_K8, lambda g: g, row_sets)


_C0 = c0_blocks(np.arange(len(SINGLE_LABELS)))


def c0_matrix(params) -> np.ndarray:
    """The full 8x8 c0 of ``params`` (with a leading row axis along a ``delta3_column``)."""
    return _C0(params)[0]


# ---------------------------------------------------------------------------
# two-atom correlator system
# ---------------------------------------------------------------------------

def _pair_matrices(wp, wpc, p: AtomParams):
    a = np.zeros((36, 36), dtype=complex)
    s = np.zeros((36, 8), dtype=complex)
    # each pair row visits two single-atom drifts; there are only 8 distinct
    terms = {lab: _drift_terms(lab, wp, wpc, p) for lab in SINGLE_LABELS}
    for r, (l1, l2) in enumerate(PAIR_LABELS):
        for lab, other in ((l1, l2), (l2, l1)):
            for (c, dd), coeff in terms[lab]:
                if (c, dd) == (1, 1):
                    s[r, SINGLE_INDEX[other]] += coeff
                    a[r, PAIR_INDEX[canonical_pair((2, 2), other)]] -= coeff
                    a[r, PAIR_INDEX[canonical_pair((3, 3), other)]] -= coeff
                else:
                    a[r, PAIR_INDEX[canonical_pair((c, dd), other)]] += coeff
    return a, s


def _pair_interaction_structure():
    kdiag = np.zeros(36, dtype=complex)
    ladder = []
    for r, ((a, b), (m, n)) in enumerate(PAIR_LABELS):
        kdiag[r] = 1j * (int(a == 3 and m == 3) - int(b == 3 and n == 3))
        for lab, other in (((a, b), (m, n)), ((m, n), (a, b))):
            la, lb = lab
            if la == 3 and lb == 3:
                continue  # the two ladder terms cancel for sigma_33
            if la == 3:
                ladder.append((r, V_INDEX[(3, lb)], SINGLE_INDEX[other], +1j))
            if lb == 3:
                ladder.append((r, V_INDEX[(la, 3)], SINGLE_INDEX[other], -1j))
    kdiag.flags.writeable = False
    return kdiag, tuple(ladder)


def _ladder_tables(ladder):
    """The ladder terms as arrays: v and sigma indices, the coefficients
    with a trailing 0 (a zero term), and ``pick``, where pick[j, r] is the
    position of row r's j-th term, or of the zero term when it has fewer."""
    rows, vi, si, coeff = (np.array(col) for col in zip(*ladder))
    if not np.all(np.isin(coeff, (1j, -1j))):
        raise GeneratorError("a ladder coefficient is not +/-i")
    slots = max(np.bincount(rows))
    pick = np.full((slots, 36), len(ladder))
    for r in range(36):
        terms = np.flatnonzero(rows == r)
        pick[:len(terms), r] = terms
    tables = (vi, si, np.append(coeff, 0j), pick)
    for arr in tables:
        arr.flags.writeable = False
    return tables


_K36, _AP, _AM, _SRC0, _SRCP, _SRCM = _constant_parts(_pair_matrices, "pair source")
_KDIAG, _LADDER = _pair_interaction_structure()
_LADDER_V, _LADDER_S, _LADDER_COEFF, _LADDER_PICK = _ladder_tables(_LADDER)
# single-label indices of the two factors of each pair label
_L1 = np.array([SINGLE_INDEX[l1] for l1, _ in PAIR_LABELS])
_L2 = np.array([SINGLE_INDEX[l2] for _, l2 in PAIR_LABELS])


def _pair_diag(g: np.ndarray) -> np.ndarray:
    """The diagonal g[l1] + g[l2] of a0, one entry per pair label."""
    return g[..., _L1] + g[..., _L2]


def a0_blocks(*row_sets):
    """``_block_gather`` of a0 = omega_c K36 + diag(g[l1] + g[l2]), as
    ``c0_blocks`` does for c0: no 36x36 a0 is formed."""
    return _block_gather(_K36, _pair_diag, row_sets)


_A0 = a0_blocks(np.arange(len(PAIR_LABELS)))


def a0_matrix(params) -> np.ndarray:
    """The full 36x36 a0 of ``params``, as ``c0_matrix`` gives c0."""
    return _A0(params)[0]


def ladder_source(v4, sigma8) -> np.ndarray:
    """The ladder closure sources of the 36 pair rows: for each row, the
    sum of its terms coeff * V[v_index] * sigma[single_index] (the
    ``_LADDER`` rows). Broadcasts over leading axes of ``v4`` and
    ``sigma8``, one point per index.

    Each value is the one Python's complex arithmetic gives, terms taken
    in ladder order from 0j: V * sigma is formed as Python forms a complex
    product, from four float64 products and one subtract and one add, with
    no fused multiply-add (numpy's complex multiply may fuse them and
    differ in the last bit). The coefficients are +/-i, so the product
    with them is exact either way; it may differ only in the sign of a
    zero term, which adding it to a sum that starts at 0j erases."""
    a = np.asarray(v4, dtype=complex)[..., _LADDER_V]
    b = np.asarray(sigma8, dtype=complex)[..., _LADDER_S]
    prod = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1] + (len(_LADDER_COEFF),),
                    dtype=complex)
    np.subtract(a.real * b.real, a.imag * b.imag, out=prod.real[..., :-1])
    np.add(a.real * b.imag, a.imag * b.real, out=prod.imag[..., :-1])
    slots = (prod * _LADDER_COEFF)[..., _LADDER_PICK]  # (..., slot, row)
    out = 0.0 + slots[..., 0, :]
    for j in range(1, len(_LADDER_PICK)):
        out = out + slots[..., j, :]
    return out


def _split_pq(pair_labels, kdiag):
    p_labels = tuple(lab for lab, kd in zip(pair_labels, kdiag) if kd != 0)
    q_labels = tuple(lab for lab, kd in zip(pair_labels, kdiag) if kd == 0)
    if len(p_labels) != 10 or len(q_labels) != 26:
        raise GeneratorError(
            f"P/Q classification broke: |P|={len(p_labels)}, |Q|={len(q_labels)}"
        )
    return p_labels, q_labels


# The diagonal interaction term is structural (no parameter enters it), so
# the P/Q partition is the same at every parameter set.
P_LABELS, Q_LABELS = _split_pq(PAIR_LABELS, _KDIAG)


# ---------------------------------------------------------------------------
# human-readable dump (audit surface)
# ---------------------------------------------------------------------------

def _fmt_label(lab):
    if lab and isinstance(lab[0], tuple):
        return "ss[%d%d,%d%d]" % (*lab[0], *lab[1])
    return "s[%d%d]" % lab


def _fmt_coeff(c0, cp, cm):
    parts = []
    if c0 != 0:
        parts.append(f"({c0:.6g})")
    if cp != 0:
        parts.append(f"({cp:.6g})*Wp")
    if cm != 0:
        parts.append(f"({cm:.6g})*Wp'")
    return " + ".join(parts)


def dump_equations(params: AtomParams, which: str = "pair") -> str:
    """Render the generated equations as text (Wp = Omega_p, Wp' = conj)."""
    lines = []
    if which in ("single", "both"):
        c0 = c0_matrix(params)
        lines.append("# single-atom steady-state equations (d/dt = 0)")
        for r, lab in enumerate(SINGLE_LABELS):
            terms = []
            for c, col in enumerate(SINGLE_LABELS):
                f = _fmt_coeff(c0[r, c], _CP[r, c], _CM[r, c])
                if f:
                    terms.append(f"{f}*{_fmt_label(col)}")
            f = _fmt_coeff(_S0[r], _SP[r], _SM[r])
            if f:
                terms.append(f)
            for vi, vlab in enumerate(V_LABELS):
                if _V_COUPLING[r, vi] != 0:
                    terms.append(f"({_V_COUPLING[r, vi]:.6g})*V[%d%d]" % vlab)
            lines.append(f"0 = d{_fmt_label(lab)}/dt = " + " + ".join(terms))
    if which in ("pair", "both"):
        a0 = a0_matrix(params)
        lines.append("# two-body correlator steady-state equations (d/dt = 0)")
        for r, lab in enumerate(PAIR_LABELS):
            terms = []
            if _KDIAG[r] != 0:
                terms.append(f"({_KDIAG[r]:.6g})*k*{_fmt_label(lab)}")
            for c, col in enumerate(PAIR_LABELS):
                f = _fmt_coeff(a0[r, c], _AP[r, c], _AM[r, c])
                if f:
                    terms.append(f"{f}*{_fmt_label(col)}")
            for c, col in enumerate(SINGLE_LABELS):
                f = _fmt_coeff(_SRC0[r, c], _SRCP[r, c], _SRCM[r, c])
                if f:
                    terms.append(f"{f}*{_fmt_label(col)}")
            for row, vi, si, coeff in _LADDER:
                if row == r:
                    terms.append(
                        f"({coeff:.6g})*V[%d%d]*{_fmt_label(SINGLE_LABELS[si])}"
                        % V_LABELS[vi]
                    )
            lines.append(f"0 = d{_fmt_label(lab)}/dt = " + " + ".join(terms))
    return "\n".join(lines) + "\n"
