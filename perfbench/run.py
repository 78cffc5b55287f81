"""rydeit benchmark: seeded workloads, measured pass by pass in fresh processes.

    python3 perfbench/run.py --workload intensity-sweep --seed 0 --seconds 55 --trace 0

Run from the root of a checkout. Each pass starts a fresh child process
(``child.py``) with OpenBLAS pinned to one thread, times its imports as
set-up, then has it scan the workload's configs and emit their CSV. Passes
run back to back (a closed loop with one client) while another one fits in
``--seconds``. Every pass's CSV is checked (``checks.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the passes alternate untraced and traced, and it reports
the per-layer metrics of the traced passes plus the tracing overhead. The
line before it holds the run record: environment, sample counts, CSV
SHA-256s and any check failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_pass, expected_rows
from tracer import COUNTER_NAMES, SPAN_NAMES
from workloads import WORKLOADS, make_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
BLAS_THREADS = "1"
# per run; a traced run needs two of each kind
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60.0
# no pass may be expected to end after this, whatever --seconds says
HARD_STOP_S = 120.0


class ChildError(RuntimeError):
    """A measured process failed to start, answer or exit cleanly."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _readline(proc: subprocess.Popen, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise ChildError("measured process timed out")
    line = proc.stdout.readline()
    if not line:
        raise ChildError(f"measured process exited early (code {proc.poll()})")
    return line


def run_child(job: dict) -> tuple[float, dict]:
    """(set-up seconds, reply) of one fresh measured process."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")], cwd=ROOT, env=_child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        if _readline(proc, deadline).strip() != "ready":
            raise ChildError("measured process did not report ready")
        setup_s = time.perf_counter() - t0
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        reply = json.loads(_readline(proc, deadline))
        if proc.wait(timeout=max(deadline - time.monotonic(), 1.0)) != 0:
            raise ChildError(f"measured process exited with {proc.returncode}")
        return setup_s, reply
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], points: int) -> dict:
    return {
        "setup_s": _metric(statistics.median(p["setup_s"] for p in passes), "s"),
        "points_per_s": _metric(
            statistics.median(points / p["wall_s"] for p in passes), "1/s"),
        "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(
            statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Layer metrics: median self times, exact counts, pooled solve latencies."""
    summaries = [p["trace"] for p in traced]
    first = summaries[0]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = _metric(first["calls"].get(name, 0), "count")
        out[f"{name}.self_s"] = _metric(
            statistics.median(s["self_s"].get(name, 0.0) for s in summaries), "s")
    out["blochgen.param_keys"] = _metric(first["param_keys"], "count")
    for name in COUNTER_NAMES:
        out[name] = _metric(first["counters"][name], "count")
    solve_ms = [ms for s in summaries for ms in s["solve_ms"]]
    out["collisional.solve_ms.p50"] = _metric(_quantile(solve_ms, 0.5), "ms")
    out["collisional.solve_ms.p90"] = _metric(_quantile(solve_ms, 0.9), "ms")
    out["trace.coverage"] = _metric(statistics.median(
        s["main_self_s"] / p["wall_s"] for s, p in zip(summaries, traced)), "ratio")
    out["trace.overhead"] = _metric(
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced), "ratio")
    return out


def _work_counts(summary: dict) -> dict:
    return {"calls": summary["calls"], "counters": summary["counters"],
            "param_keys": summary["param_keys"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store one pass's CSV as the reference for this "
                         "workload (default seed only) and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rydeit" / "__init__.py").is_file():
        print(f"perfbench: no rydeit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    configs = make_job(args.workload, args.seed)
    points = sum(expected_rows(c) for c in configs)
    ref_path = REFERENCE_DIR / f"{args.workload}.csv"

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            print("perfbench: references are kept for the default seed only",
                  file=sys.stderr)
            return 2
        _, reply = run_child({"configs": configs, "trace": False})
        REFERENCE_DIR.mkdir(exist_ok=True)
        ref_path.write_text(reply["csv"])
        print(f"wrote {ref_path.relative_to(ROOT)}")
        return 0

    reference = None
    failures: list[str] = []
    if args.seed == DEFAULT_SEED:
        if ref_path.is_file():
            reference = ref_path.read_text()
        else:
            failures.append(f"reference {ref_path.name} missing")

    # unmeasured warm-up: compiles bytecode, warms the file cache, and
    # reports the numerical stack's versions
    _, env = run_child({"env": True})
    env.update(commit=_commit(), src_sha256=_source_sha256(), nproc=os.cpu_count(),
               blas_threads=int(BLAS_THREADS))

    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = 0
    failed = 0
    shas: list[str] = []
    child_error = None
    while True:
        trace = bool(args.trace) and len(untraced) > len(traced)
        try:
            setup_s, reply = run_child({"configs": configs, "trace": trace})
        except (ChildError, json.JSONDecodeError) as exc:
            child_error = str(exc)
            attempted += points
            failed += points
            break
        reply["setup_s"] = setup_s
        csv_text = reply.pop("csv")
        n, bad = check_pass(csv_text, configs, reference)
        attempted += n
        failed += len(bad)
        failures += bad
        shas.append(hashlib.sha256(csv_text.encode()).hexdigest())
        (traced if trace else untraced).append(reply)
        # stop before a pass that would end past --seconds
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / (len(untraced) + len(traced))
        enough = len(untraced) + len(traced) >= MIN_PASSES and (
            len(traced) >= 2 or not args.trace)
        if (enough and next_end > args.seconds) or next_end > HARD_STOP_S:
            break

    distinct_shas = sorted(set(shas))
    counts = [_work_counts(p["trace"]) for p in traced]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {kind: {key: [p[key] for p in ps]
                           for key in ("setup_s", "wall_s", "cpu_s")}
                    for kind, ps in (("untraced", untraced), ("traced", traced))},
        "points_per_pass": points,
        "csv_sha256": distinct_shas,
        "fail_frac": failed / attempted if attempted else None,
        "failures": failures[:20],
        "child_error": child_error,
        "absent": traced[0]["trace"]["absent"] if traced else [],
        "work_counts_repeat": all(c == counts[0] for c in counts),
    }
    print(json.dumps(record, sort_keys=True))

    if not untraced or (args.trace and not traced):
        print(f"perfbench: no completed pass ({child_error})", file=sys.stderr)
        return 1
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, points)
    correct = (failed == 0 and not failures and child_error is None
               and len(distinct_shas) == 1 and record["work_counts_repeat"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
