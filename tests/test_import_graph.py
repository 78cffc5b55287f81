"""The production import path loads numpy and click only.

SciPy (the adaptive radial quadrature) and mpmath (the tanh-sinh
reference) belong to validation and reference paths and are imported on
first use. A fresh interpreter is needed: in the test process other tests
have already loaded both.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = r"""
import io, json, sys

import rydeit
import rydeit.cli
from rydeit import InteractionParams, scan
from rydeit.collisional import F_lambda, F_lambda_quadrature

cfg = scan.ScanConfig(state=50)
rows = [scan.compute_row(cfg, cfg.delta3, 0.02),
        scan.compute_row(cfg, cfg.delta3, 0.0)]
buf = io.StringIO()
scan.write_csv(rows, cfg.metadata_dict(), buf)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))

production = loaded()
lam = 1.0 + 2.0j
inter = InteractionParams(c6=5000.0)
closed, quad = F_lambda(lam, inter), F_lambda_quadrature(lam, inter)
print(json.dumps({
    "flags": [r.flag for r in rows],
    "csv_lines": len(buf.getvalue().splitlines()),
    "production": production,
    "closed": [closed.real, closed.imag],
    "quad": [quad.real, quad.imag],
    "scipy_integrate_after": "scipy.integrate" in sys.modules,
}))
"""


def test_production_path_loads_no_scipy_or_mpmath():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    # one finite-probe and one zero-probe row, both solved and written
    assert got["flags"] == ["", ""]
    assert got["csv_lines"] == 4  # metadata comment, header, two rows
    assert got["production"] == []
    # the validation path still works, and loads the quadrature on first use
    assert complex(*got["closed"]) == pytest.approx(complex(*got["quad"]), rel=1e-6)
    assert got["scipy_integrate_after"]
