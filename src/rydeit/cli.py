"""Command-line interface: point solves, grid scans, figure data, validation.

Exit codes: 0 on success, 1 if any grid point failed (flagged rows) or a
validation check failed, 2 on configuration errors.
"""
from __future__ import annotations

import io
import json
import sys

import click

from .blochgen import dump_equations
from .params import AtomParams
from .scan import (
    ConfigError,
    FIGURES,
    ScanConfig,
    run_figure,
    run_scan,
    write_csv,
)
from .validate import run_suite

__all__ = ["main"]


def _parse_grid(text: str) -> tuple[float, float, int]:
    """Parse 'start:stop:count' (or a single value) into grid fields."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            x = float(parts[0])
            return x, x, 1
        if len(parts) == 3:
            return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        pass
    raise ConfigError(f"expected 'start:stop:count' or a single value, got {text!r}")


def _load_config(config_path, **overrides) -> ScanConfig:
    data: dict = {}
    if config_path is not None:
        try:
            with open(config_path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    omega_p2 = overrides.pop("omega_p2", None)
    if omega_p2 is not None:
        start, stop, count = _parse_grid(omega_p2)
        data["omega_p2_start"] = start
        data["omega_p2_stop"] = stop
        data["omega_p2_count"] = count
    for key, val in overrides.items():
        if val is not None:
            data[key] = val
    return ScanConfig.from_dict(data)


def _emit(rows, config: ScanConfig, extra=None) -> int:
    if config.out:
        with open(config.out, "w") as f:
            write_csv(rows, config.metadata_dict(), f, extra=extra)
    else:
        write_csv(rows, config.metadata_dict(), sys.stdout, extra=extra)
    return 1 if any(r.flag for r in rows) else 0


_SHARED = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON config file with flat ScanConfig keys."),
    click.option("--state", type=int, default=None,
                 help="State preset (46, 50, 56, 61)."),
    click.option("--c6", type=float, default=None, help="Pair interaction C6."),
    click.option("--omega-c", "omega_c", type=float, default=None,
                 help="Control Rabi frequency."),
    click.option("--delta2", type=float, default=None, help="One-photon detuning."),
    click.option("--delta3", type=float, default=None, help="Two-photon detuning."),
    click.option("--out", type=click.Path(), default=None,
                 help="Output CSV path (default stdout)."),
    click.option("--tol", type=float, default=None, help="Solver tolerance."),
]


def _shared(fn):
    for opt in reversed(_SHARED):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Steady-state simulator for an interacting three-level Rydberg gas."""


@main.command()
@_shared
@click.option("--omega-p2", "omega_p2", type=str, default=None,
              help="Probe intensity |omega_p|^2 (single value, default 0.5).")
def point(config_path, omega_p2, **overrides):
    """Solve a single operating point and emit a one-row CSV."""
    try:
        if omega_p2 is None and config_path is None:
            omega_p2 = "0.5"
        config = _load_config(config_path, omega_p2=omega_p2, **overrides)
        if config.omega_p2_count != 1 or config.delta3_count > 1:
            raise ConfigError("point expects a single grid point; use scan for grids")
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    sys.exit(_emit(run_scan(config), config))


@main.command()
@_shared
@click.option("--omega-p2", "omega_p2", type=str, default=None,
              help="Probe intensity grid start:stop:count.")
def scan(config_path, omega_p2, **overrides):
    """Solve a grid over probe intensity (and optional detuning grid)."""
    try:
        config = _load_config(config_path, omega_p2=omega_p2, **overrides)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    sys.exit(_emit(run_scan(config), config))


@main.command()
@click.argument("name", type=click.Choice(sorted(FIGURES)))
@click.option("--out", type=click.Path(), default=None,
              help="Output CSV path (default stdout).")
@click.option("--tol", type=float, default=1e-10)
def figure(name, out, tol):
    """Emit the CSV data behind one of the standard figures."""
    buf = io.StringIO()  # written only once the presets accept tol
    try:
        flagged = run_figure(name, buf, tol=tol)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    if out:
        with open(out, "w") as f:
            f.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    sys.exit(1 if flagged else 0)


@main.command()
@click.argument("suite", type=click.Choice(["fast", "full"]))
def validate(suite):
    """Run the built-in validation suite and print one line per check."""
    results = run_suite(suite)
    for name, passed, detail in results:
        click.echo(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    failed = sum(1 for _, ok, _ in results if not ok)
    click.echo(f"{len(results) - failed}/{len(results)} checks passed")
    sys.exit(1 if failed else 0)


@main.command()
@click.option("--which", type=click.Choice(["single", "pair", "both"]),
              default="both")
@click.option("--omega-c", "omega_c", type=float, default=3.0)
@click.option("--delta2", type=float, default=-25.0)
@click.option("--delta3", type=float, default=1.0 / 3.0)
def equations(which, omega_c, delta2, delta3):
    """Dump the generated steady-state equations (debugging aid)."""
    p = AtomParams(omega_p=0.0, omega_c=omega_c, delta2=delta2, delta3=delta3)
    click.echo(dump_equations(p, which=which))


if __name__ == "__main__":
    main()
