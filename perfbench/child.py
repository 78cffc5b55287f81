"""One measured pass in a fresh process, as a ``rydeit`` CLI user pays it.

Protocol, one line each way over stdin/stdout:

1. child -> parent: ``ready`` once ``rydeit`` and ``rydeit.cli`` are
   imported (the parent times this as set-up);
2. parent -> child: a JSON job ``{"configs": [...], "trace": bool}``, or
   ``{"env": true}`` for the versions of the numerical stack;
3. child -> parent: one JSON object with the pass's wall and CPU seconds,
   peak RSS, the emitted CSV and, when traced, the tracer summary.

The parent puts the checkout's ``src`` on ``PYTHONPATH`` and pins the BLAS
thread count before starting this process.
"""
import rydeit  # noqa: F401  (set-up: what the CLI imports)
import rydeit.cli  # noqa: F401

print("ready", flush=True)

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from time import perf_counter  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _env() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(configs: list[dict], trace: bool) -> dict:
    """Scan every config and emit its CSV, as ``rydeit scan`` does."""
    scan = sys.modules["rydeit.scan"]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    cpu0 = _cpu_s()
    t0 = perf_counter()
    for d in configs:
        cfg = scan.ScanConfig.from_dict(d)
        scan.write_csv(scan.run_scan(cfg), cfg.metadata_dict(), buf)
    wall = perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib / 1024.0,
        "csv": buf.getvalue(),
        "trace": tracer.summary(threading.get_ident()) if tracer else None,
    }


def main() -> None:
    job = json.loads(sys.stdin.readline())
    reply = _env() if job.get("env") else run_pass(job["configs"], job["trace"])
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
