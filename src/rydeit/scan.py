"""Parameter sweeps and deterministic CSV emission.

A scan is a grid over probe intensity (and optionally two-photon detuning)
at fixed atomic parameters. Grid points are independent: the zero-probe
points are evaluated as one stacked weak-probe column, and the finite-probe
points are solved in lockstep, then their single-atom states as one
column, each bit for bit as it is alone. One row builder fills every row.
Rows come sorted by (delta3, |omega_p|^2), so the emitted CSV is
byte-identical across runs.

The figure presets reproduce the three standard result sweeps:
fig2 (normalized dispersive response vs intensity, four states),
fig3 (susceptibility vs two-photon detuning at fixed intensity),
fig4 (blockade scaling parameters vs intensity at three detunings).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple

import numpy as np

from .collisional import (
    _NO_FEEDBACK,
    _SOLVE_ERRORS,
    CollisionalIntegrals,
    solve_collisional_column,
)
from .noninteracting import (
    SingleAtomState,
    perturbative_coefficients,
    perturbative_column,
    single_atom_operands,
    solve_sigma,
    steady_state_two_level,
)
from .observables import (
    DegenerateNormalizationError,
    ObservableSet,
    nb_tilde_weak_probe,
    nb_weak_probe,
    observable_set,
)
from .params import (
    C6_PRESETS,
    AtomParams,
    InteractionParams,
    StatePreset,
    delta3_column,
    relaxation_constants,
    stacked,
)
from .perturbative import chi3_interacting, collisional_integral_V13_column

__all__ = [
    "ConfigError",
    "ScanConfig",
    "ScanResultRow",
    "compute_row",
    "run_scan",
    "run_figure",
    "write_csv",
    "FIGURES",
]

_NAN = float("nan")

# Failures of a well-posed grid point, reported as flagged rows; anything
# else is a programming error and propagates.
_POINT_ERRORS = (*_SOLVE_ERRORS, DegenerateNormalizationError)


class ConfigError(ValueError):
    """Invalid or inconsistent scan configuration."""


@dataclass
class ScanConfig:
    """Flat scan configuration; every key maps to a CLI flag of the same name.

    ``state`` selects a principal-quantum-number preset (46, 50, 56, 61)
    that fixes c6 and omega_c unless those are given explicitly. The probe
    grid is linear in |omega_p|^2. A delta3 grid is optional (used for
    spectra); when absent the single ``delta3`` value is used. Every float
    field must be a finite real number (not a bool), grid counts must be
    integers, ``out`` a path string or None, and the atom and interaction
    parameters must pass AtomParams and InteractionParams.
    """

    state: int | None = None
    c6: float | None = None
    omega_c: float | None = None
    delta2: float = -25.0
    delta3: float = 1.0 / 3.0
    gamma13: float = 0.1
    gamma23: float | None = None
    gamma22: float | None = None
    gamma33: float = 0.0
    eta: float = 0.04
    omega_p2_start: float = 0.0
    omega_p2_stop: float = 0.5
    omega_p2_count: int = 26
    delta3_start: float | None = None
    delta3_stop: float | None = None
    delta3_count: int = 0
    tol: float = 1e-10
    out: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if "float" in str(f.type) and value is not None and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ConfigError(f"{f.name} must be a number, real and not bool: {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.state is not None and self.state not in C6_PRESETS:
            raise ConfigError(
                f"unknown state preset {self.state}; known: {sorted(C6_PRESETS)}"
            )
        if self.state is None and (self.c6 is None or self.omega_c is None):
            raise ConfigError("either a state preset or explicit c6 and omega_c")
        for name in ("omega_p2_count", "delta3_count"):
            if type(getattr(self, name)) is not int:  # a bool is not a count
                raise ConfigError(f"{name} must be an integer")
        if self.omega_p2_count < 1:
            raise ConfigError("probe grid must be non-empty")
        if self.omega_p2_start < 0 or self.omega_p2_stop < self.omega_p2_start:
            raise ConfigError("probe grid must be non-negative and increasing")
        if self.delta3_count < 0:
            raise ConfigError("delta3_count must be >= 0")
        if self.delta3_count > 0 and (self.delta3_start is None or self.delta3_stop is None):
            raise ConfigError("delta3 grid needs delta3_start and delta3_stop")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        try:
            self.point_params(self.delta3_grid().tolist()[0], self.omega_p2_start)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, d: dict) -> "ScanConfig":
        """Config from flat keys; unknown keys are a ConfigError.

        A ``threads`` key, which older configs set, is dropped with a
        FutureWarning: scans run serially, so it never had an effect, and a
        later version will reject it.
        """
        if "threads" in d:
            warnings.warn("config key 'threads' is ignored and will be "
                          "rejected in a future version", FutureWarning,
                          stacklevel=2)
            d = {k: v for k, v in d.items() if k != "threads"}
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return dict(vars(self))  # every field a scalar: no deep copy needed

    def metadata_dict(self) -> dict:
        """Config as embedded in CSV metadata.

        The output path is dropped so the emitted file does not depend on
        where it is written, while still reproducing the run when re-parsed.
        """
        d = self.to_dict()
        d.pop("out")
        return d

    def resolved_c6(self) -> float:
        if self.c6 is not None:
            return self.c6
        return StatePreset(self.state).c6

    def resolved_omega_c(self) -> float:
        if self.omega_c is not None:
            return self.omega_c
        return StatePreset(self.state).omega_c

    def point_params(self, delta3: float,
                     omega_p2: float) -> tuple[AtomParams, InteractionParams]:
        """Atom and interaction parameters of the grid point (delta3, omega_p2)."""
        atom = AtomParams(
            omega_p=math.sqrt(omega_p2),
            omega_c=self.resolved_omega_c(),
            delta2=self.delta2,
            delta3=delta3,
            gamma13=self.gamma13,
            gamma23=self.gamma23,
            gamma22=self.gamma22,
            gamma33=self.gamma33,
        )
        return atom, InteractionParams(c6=self.resolved_c6(), eta=self.eta)

    def omega_p2_grid(self) -> np.ndarray:
        if self.omega_p2_count == 1:
            return np.array([self.omega_p2_start])
        return np.linspace(self.omega_p2_start, self.omega_p2_stop, self.omega_p2_count)

    def delta3_grid(self) -> np.ndarray:
        if self.delta3_count == 0:
            return np.array([self.delta3])
        if self.delta3_count == 1:
            return np.array([self.delta3_start])
        return np.linspace(self.delta3_start, self.delta3_stop, self.delta3_count)


class ScanResultRow(NamedTuple):
    """One solved grid point: an immutable tuple in CSV column order."""

    state: int
    c6: float
    omega_c: float
    delta2: float
    delta3: float
    gamma13: float
    gamma23: float
    gamma22: float
    gamma33: float
    eta: float
    omega_p2: float
    chi_re: float = _NAN
    chi_im: float = _NAN
    chi_3lev_re: float = _NAN
    chi_3lev_im: float = _NAN
    chi_2lev_re: float = _NAN
    chi_2lev_im: float = _NAN
    S: float = _NAN
    S_norm_re: float = _NAN
    S_norm_im: float = _NAN
    v13_re: float = _NAN
    v13_im: float = _NAN
    v31_re: float = _NAN
    v31_im: float = _NAN
    v23_re: float = _NAN
    v23_im: float = _NAN
    v32_re: float = _NAN
    v32_im: float = _NAN
    sigma22: float = _NAN
    sigma33: float = _NAN
    nb_re: float = _NAN
    nb_im: float = _NAN
    nb_tilde: float = _NAN
    iterations: int = 0
    residual: float = _NAN
    flag: str = ""

    @classmethod
    def columns(cls) -> list[str]:
        return list(cls._fields)


# a CSV row's cells: the int and flag fields, every other one a float
_ROW_FORMAT = ",".join({"state": "%d", "iterations": "%d", "flag": "%s"}.get(name, "%.12g")
                       for name in ScanResultRow._fields)


def _weak_probe_values(params: AtomParams, interaction: InteractionParams,
                       delta3s: list[float]) -> list:
    """(observables, integrals, sigma22) at each zero-probe point (delta3, 0)
    of the column of ``params`` over ``delta3s``, from one stacked
    evaluation: the single-atom cascade, the kernels and their pole sums,
    and the blockade counts at their weak-probe limits. The interacting and
    three-level responses coincide there (S = S_norm = 1), and V = sigma = 0:
    all atoms are in the ground state."""
    column = delta3_column(params, delta3s)
    pc = perturbative_column(column)
    v13_3 = collisional_integral_V13_column(column, pc, interaction)
    nb = nb_weak_probe(column, pc, v13_3)
    nbt = nb_tilde_weak_probe(column, pc, v13_3)
    chi2 = -1j / relaxation_constants(params).Gamma12
    return [(ObservableSet(chi, chi, chi2, 1.0, 1.0, n_b, n_bt, 0.0), _NO_FEEDBACK, 0.0)
            for chi, n_b, n_bt in zip(pc.s12_1.tolist(), nb.tolist(), nbt.tolist())]


def _finite_probe_values(points: list) -> list:
    """(observables, integrals, sigma22) at each finite-probe point (params,
    integrals) of one config: the interacting, the three-level and the
    two-level single-atom states from three stacked solves over the
    points' ``delta3_column``, then each point's ``observable_set``."""
    column = delta3_column(points[0][0], [p.delta3 for p, _ in points])
    wp = np.array([p.omega_p for p, _ in points])
    operands = single_atom_operands(column, wp, np.conj(wp))
    sigma = solve_sigma(column, operands, [v.v4 for _, v in points])
    sigma_3lev = solve_sigma(column, operands, None)
    sigma_2lev = steady_state_two_level(column, wp).values
    states = [[SingleAtomState(s) for s in sigmas]
              for sigmas in zip(sigma, sigma_3lev, sigma_2lev)]
    return [(observable_set(p, *st), v, st[0].sigma22.real)
            for (p, v), st in zip(points, states)]


def _solve_points(config: ScanConfig, points: list[tuple[float, float]]) -> list:
    """(params, interaction, values) of each grid point (delta3, omega_p2)
    of ``config``; the values may be the point's typed error.

    The zero-probe points are one weak-probe column (``_weak_probe_values``)
    and share its single parameter set, of which their rows read only the
    delta3-independent fields. The finite-probe points are solved in
    lockstep (``solve_collisional_column``), then their single-atom states
    and observables as one column (``_finite_probe_values``). Each column
    is one stacked evaluation, else point by point on a point error
    (``params.stacked``), the one place a typed error becomes a value."""
    zero = [d3 for d3, wp2 in points if wp2 == 0.0]
    finite = [config.point_params(d3, wp2) for d3, wp2 in points if wp2 != 0.0]
    if zero:
        params, interaction = config.point_params(zero[0], 0.0)
        evaluate = functools.partial(_weak_probe_values, params, interaction)
        zero = [(params, interaction, values)
                for values in stacked(evaluate, zero, _POINT_ERRORS)]
    if finite:
        interaction = finite[0][1]
        atoms = [p for p, _ in finite]
        solved = solve_collisional_column(atoms, interaction, tol=config.tol)
        ok = [(p, v) for p, v in zip(atoms, solved) if isinstance(v, CollisionalIntegrals)]
        values = iter(stacked(_finite_probe_values, ok, _POINT_ERRORS) if ok else [])
        finite = [(p, interaction, v if isinstance(v, Exception) else next(values))
                  for p, v in zip(atoms, solved)]
    zero, finite = iter(zero), iter(finite)
    return [next(zero) if wp2 == 0.0 else next(finite) for _, wp2 in points]


def compute_row(config: ScanConfig, delta3: float, omega_p2: float,
                solved=None) -> ScanResultRow:
    """Solve one grid point of ``config``; failures are returned as flagged rows.

    ``solved`` is the point's entry of ``_solve_points`` when ``run_scan``
    has solved the whole grid; otherwise the point is solved alone.
    """
    if solved is None:
        (solved,) = _solve_points(config, [(delta3, omega_p2)])
    params, interaction, values = solved
    inputs = (config.state if config.state is not None else 0, interaction.c6,
              params.omega_c, config.delta2, delta3, config.gamma13,
              params.gamma23, params.gamma22,  # resolved defaults
              config.gamma33, config.eta, omega_p2)
    if isinstance(values, Exception):
        msg = f"{type(values).__name__}: {values}".replace("\n", " ")[:200]
        return ScanResultRow(*inputs, flag=msg)
    (chi, chi3, chi2, s, s_norm, nb, nb_tilde, p_r), integrals, sigma22 = values
    v13, v31, v23, v32 = integrals.v13, integrals.v31, integrals.v23, integrals.v32
    return ScanResultRow(
        *inputs, chi.real, chi.imag, chi3.real, chi3.imag, chi2.real, chi2.imag,
        s, s_norm.real, s_norm.imag, v13.real, v13.imag, v31.real, v31.imag,
        v23.real, v23.imag, v32.real, v32.imag, sigma22, p_r,
        nb.real, nb.imag, nb_tilde, integrals.iterations, integrals.residual)


def run_scan(config: ScanConfig) -> list[ScanResultRow]:
    """Solve the configured grid, sorted by (delta3, |omega_p|^2). The
    zero-probe points are evaluated as one column and the finite-probe
    points are solved in lockstep (``_solve_points``)."""
    grid = sorted(itertools.product(config.delta3_grid().tolist(),
                                    config.omega_p2_grid().tolist()))
    return [compute_row(config, d3, wp2, solved)
            for (d3, wp2), solved in zip(grid, _solve_points(config, grid))]


def write_csv(rows: Iterable[ScanResultRow], config_dict: dict, stream,
              extra: dict[str, list[float]] | None = None) -> None:
    """Emit rows with a JSON metadata comment header, 12 significant digits.

    ``extra`` maps additional column names to per-row value lists (used by
    the figure presets).
    """
    rows = list(rows)
    extra = extra or {}
    for name, vals in extra.items():
        if len(vals) != len(rows):
            raise ValueError(f"extra column {name} has {len(vals)} values "
                             f"for {len(rows)} rows")
    stream.write("# " + json.dumps(config_dict, sort_keys=True) + "\n")
    stream.write(",".join(ScanResultRow.columns() + list(extra)) + "\n")
    line = ",".join([_ROW_FORMAT] + ["%.12g"] * len(extra)) + "\n"
    for row, more in zip(rows, zip(*extra.values()) if extra else itertools.repeat(())):
        stream.write(line % (*row[:-1], row.flag.replace(",", ";"), *more))


def _s_slope_third_order(params: AtomParams, interaction: InteractionParams) -> float:
    """Slope of the normalized dispersive response S at zero intensity.

    The two-level reference expansion cancels in the ratio, leaving
    d S / d |omega_p|^2 = Re[s12_3_collisional] / Re[s12_1 + i/Gamma12].
    """
    rc = relaxation_constants(params)
    chi3 = chi3_interacting(params, interaction)
    pc = perturbative_coefficients(params)
    return float(chi3.s12_3_collisional.real / (pc.s12_1 + 1j / rc.Gamma12).real)


def _figure2(tol: float):
    configs = [
        ScanConfig(state=n, delta3=1.0 / 3.0,
                   omega_p2_start=0.0, omega_p2_stop=0.5, omega_p2_count=26,
                   tol=tol)
        for n in (46, 50, 56, 61)
    ]
    rows: list[ScanResultRow] = []
    slopes: list[float] = []
    for cfg in configs:
        slope = _s_slope_third_order(*cfg.point_params(cfg.delta3, 0.0))
        new_rows = run_scan(cfg)
        rows.extend(new_rows)
        slopes.extend(1.0 + slope * r.omega_p2 for r in new_rows)
    meta = {"figure": "fig2", "configs": [c.metadata_dict() for c in configs]}
    return rows, meta, {"s_third_order": slopes}


def _figure3(tol: float):
    cfg = ScanConfig(state=61,
                     omega_p2_start=0.5, omega_p2_stop=0.5, omega_p2_count=1,
                     delta3_start=-2.0, delta3_stop=2.0, delta3_count=81,
                     tol=tol)
    rows = run_scan(cfg)
    pc = perturbative_column(delta3_column(cfg.point_params(rows[0].delta3, 0.0)[0],
                                           [r.delta3 for r in rows]))
    chi_t = pc.s12_1 + np.array([r.omega_p2 for r in rows]) * pc.s12_3
    trunc_re, trunc_im = chi_t.real.tolist(), chi_t.imag.tolist()
    meta = {"figure": "fig3", "configs": [cfg.metadata_dict()]}
    return rows, meta, {"chi_trunc_re": trunc_re, "chi_trunc_im": trunc_im}


def _figure4(tol: float):
    rows: list[ScanResultRow] = []
    configs = []
    for d3 in (1.0 / 3.0, 1.0, 2.0):
        cfg = ScanConfig(state=50, delta3=d3,
                         omega_p2_start=0.001, omega_p2_stop=0.5,
                         omega_p2_count=25, tol=tol)
        configs.append(cfg)
        rows.extend(run_scan(cfg))
    meta = {"figure": "fig4", "configs": [c.metadata_dict() for c in configs]}
    return rows, meta, {}


FIGURES = {"fig2": _figure2, "fig3": _figure3, "fig4": _figure4}


def run_figure(name: str, stream, tol: float = 1e-10) -> bool:
    """Write a figure-preset CSV; returns True if any row is flagged."""
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; known: {sorted(FIGURES)}")
    rows, meta, extra = FIGURES[name](tol)
    write_csv(rows, meta, stream, extra=extra)
    return any(r.flag for r in rows)
