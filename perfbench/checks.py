"""Checks on the CSV a pass emits; every failed row counts as a failed point.

Each solved row must satisfy, with the tolerances stated here:

* no flag, and every numeric cell finite;
* ``v31 = conj(v13)`` and ``v32 = conj(v23)`` to ``CONJ_RTOL`` relative to
  the largest modulus of the four feedback integrals (the solver's scale);
* ``residual <= tol`` (the config's solver tolerance);
* ``0 <= sigma22``, ``0 <= sigma33`` and ``sigma22 + sigma33 <= 1``.

On the default seed the CSV must also agree with the reference CSV stored
with the benchmark: each reference cell ``r`` and emitted cell ``x`` obey
``|x - r| <= REF_RTOL * |r| + REF_COLUMN_ATOL * max|column|``. Solver
diagnostics (``iterations``, ``residual``) are exempt, because a faster
solver legitimately changes them.
"""
from __future__ import annotations

import csv
import json
import math

CONJ_RTOL = 1e-6
REF_RTOL = 1e-8
REF_COLUMN_ATOL = 1e-10
DIAGNOSTIC_COLUMNS = ("iterations", "residual", "flag")


def parse_blocks(text: str) -> list[tuple[dict, list[dict]]]:
    """Split concatenated CSVs into (metadata, rows) blocks."""
    blocks: list[tuple[dict, list[str]]] = []
    for line in text.splitlines():
        if line.startswith("# "):
            blocks.append((json.loads(line[2:]), []))
        elif blocks:
            blocks[-1][1].append(line)
    return [(meta, list(csv.DictReader(lines))) for meta, lines in blocks]


def row_failure(row: dict, tol: float) -> str | None:
    """Why a row breaks an invariant, or None if it holds them all."""
    if row.get("flag"):
        return f"flagged: {row['flag']}"
    try:
        vals = {c: float(v) for c, v in row.items() if c != "flag"}
    except (TypeError, ValueError) as exc:
        return f"unparsable cell: {exc}"
    bad = [c for c, v in vals.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite {bad}"
    v = {n: complex(vals[f"{n}_re"], vals[f"{n}_im"])
         for n in ("v13", "v31", "v23", "v32")}
    scale = max(abs(z) for z in v.values())
    for a, b in (("v13", "v31"), ("v23", "v32")):
        dev = abs(v[b] - v[a].conjugate())
        if dev > CONJ_RTOL * scale:
            return f"{b} != conj({a}): deviation {dev:.3g} of max|V| {scale:.3g}"
    if vals["residual"] > tol:
        return f"residual {vals['residual']:.3g} > tol {tol:.3g}"
    s22, s33 = vals["sigma22"], vals["sigma33"]
    if s22 < 0 or s33 < 0 or s22 + s33 > 1:
        return f"unphysical populations sigma22={s22!r} sigma33={s33!r}"
    return None


def expected_rows(config: dict) -> int:
    """Grid points of a config (or of a CSV block's metadata)."""
    return config["omega_p2_count"] * max(config.get("delta3_count") or 0, 1)


def check_pass(text: str, configs: list[dict],
               reference: str | None) -> tuple[int, list[str]]:
    """(points attempted, one message per failed point) for one pass."""
    blocks = parse_blocks(text)
    attempted = sum(expected_rows(c) for c in configs)
    failures: list[str] = []
    if len(blocks) != len(configs):
        return attempted, [f"{len(blocks)} CSV blocks for {len(configs)} configs"] * attempted
    ref_blocks = parse_blocks(reference) if reference is not None else None
    if ref_blocks is not None and len(ref_blocks) != len(blocks):
        return attempted, ["block count differs from the reference"] * attempted
    for b, (meta, rows) in enumerate(blocks):
        want = expected_rows(meta)
        if len(rows) != want:
            failures += [f"block {b}: {len(rows)} rows for {want} points"] * max(
                want - len(rows), 1)
        ref_rows = ref_blocks[b][1] if ref_blocks is not None else None
        scale = _column_scale(ref_rows) if ref_rows else {}
        for i, row in enumerate(rows):
            why = row_failure(row, meta["tol"])
            if why is None and ref_rows is not None:
                why = _reference_mismatch(row, ref_rows[i] if i < len(ref_rows) else None,
                                          scale)
            if why is not None:
                failures.append(f"block {b} row {i}: {why}")
    return attempted, failures


def _column_scale(rows: list[dict]) -> dict[str, float]:
    cols = [c for c in rows[0] if c not in DIAGNOSTIC_COLUMNS]
    return {c: max(abs(float(r[c])) for r in rows) for c in cols}


def _reference_mismatch(row: dict, ref: dict | None, scale: dict) -> str | None:
    if ref is None:
        return "row not in the reference"
    for col, colmax in scale.items():
        if col not in row:
            return f"column {col} missing"
        x, r = float(row[col]), float(ref[col])
        if abs(x - r) > REF_RTOL * abs(r) + REF_COLUMN_ATOL * colmax:
            return f"{col} = {x!r} differs from reference {r!r}"
    return None
