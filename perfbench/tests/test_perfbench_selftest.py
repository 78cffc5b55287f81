"""Self-test of the benchmark: exact work counts, the tracer and the checks.

    python -m pytest perfbench/tests -q
"""
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from checks import check_pass, row_failure  # noqa: E402
from run import DEFAULT_SEED, REFERENCE_DIR, run_child  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_job  # noqa: E402

EXACT_COUNTS = ("collisional.iterations", "collisional.continuation_steps",
                "quadrature.nodes")


def _small_job() -> list[dict]:
    """A few points of each workload, the sweep column still on two threads."""
    return [dict(make_job("intensity-sweep", 3)[0], omega_p2_count=6),
            dict(make_job("weak-probe-spectrum", 3)[0], delta3_count=5)]


def test_traced_work_counts_repeat_exactly():
    job = {"configs": _small_job(), "trace": True}
    first, second = (run_child(job)[1] for _ in range(2))
    for reply in (first, second):
        attempted, failures = check_pass(reply["csv"], job["configs"], None)
        assert attempted == 11 and failures == []
    a, b = first["trace"], second["trace"]
    assert a["calls"].get("collisional.G") == b["calls"].get("collisional.G")
    assert all(a["counters"][n] == b["counters"][n] for n in EXACT_COUNTS)
    assert a["param_keys"] == b["param_keys"]
    assert a["calls"]["scan.compute_row"] == 11


def test_jobs_depend_only_on_the_seed():
    for name in WORKLOADS:
        assert make_job(name, 7) == make_job(name, 7)
        assert make_job(name, 7) != make_job(name, 8)


def _fake_package(name: str, monkeypatch) -> None:
    """pkg.inner.work and pkg.outer.step, which binds work by import."""
    inner = types.ModuleType(f"{name}.inner")

    def work():
        time.sleep(0.02)

    inner.work = work
    outer = types.ModuleType(f"{name}.outer")
    outer.work = work  # a `from .inner import work` copy

    def step():
        time.sleep(0.01)
        outer.work()

    outer.step = step
    for mod in (types.ModuleType(name), inner, outer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)


def test_tracer_wraps_import_copies_and_reports_absent_names(monkeypatch):
    _fake_package("perfbench_fakepkg", monkeypatch)
    tracer = Tracer()
    tracer.install("perfbench_fakepkg", {"inner": ("work", "gone"),
                                         "outer": ("step",)})
    outer = sys.modules["perfbench_fakepkg.outer"]
    with ThreadPoolExecutor(max_workers=3) as pool:
        list(pool.map(lambda _: outer.step(), range(6)))
    s = tracer.summary(threading.get_ident())
    assert s["calls"] == {"outer.step": 6, "inner.work": 6}
    assert s["absent"] == ["inner.gone", "collisional.G"]
    # per-thread stacks: a step's self time never loses another thread's work
    assert s["self_s"]["outer.step"] >= 6 * 0.01
    assert s["self_s"]["inner.work"] >= 6 * 0.02
    assert s["main_self_s"] == 0.0


def _reference(workload: str) -> str:
    return (REFERENCE_DIR / f"{workload}.csv").read_text()


def test_reference_passes_its_own_checks():
    for name in WORKLOADS:
        configs = make_job(name, DEFAULT_SEED)
        attempted, failures = check_pass(_reference(name), configs, _reference(name))
        assert attempted > 0 and failures == []


def test_checks_catch_each_broken_invariant():
    text = _reference("intensity-sweep")
    configs = make_job("intensity-sweep", DEFAULT_SEED)
    lines = text.splitlines()
    # the first column's |omega_p|^2 = 0.5 row, where every V is nonzero
    last = 1 + configs[0]["omega_p2_count"]
    names, cells = lines[1].split(","), lines[last].split(",")
    row = dict(zip(names, cells))
    assert row_failure(row, 1e-10) is None
    for col, val in (("v31_im", row["v13_im"]), ("residual", "1e-6"),
                     ("sigma33", "-1e-9"), ("chi_re", "nan"),
                     ("flag", "ConvergenceError: stalled")):
        assert row_failure(dict(row, **{col: val}), 1e-10) is not None
    i = names.index("chi_re")
    cells[i] = repr(float(cells[i]) * (1 + 1e-6))
    lines[last] = ",".join(cells)
    _, failures = check_pass("\n".join(lines), configs, text)
    assert len(failures) == 1 and "chi_re" in failures[0]
