"""Outside-in tracer for the rydeit layers.

Wraps the public functions of each layer from outside the package: every
binding of a listed function in any loaded ``rydeit`` module is replaced,
so ``from .x import f`` copies are traced too. A function that no longer
exists is reported as absent instead of failing.

Each thread keeps its own span stack. A span records its name, start, end
and parent (an index into the same thread's span list); spans stay in
memory until ``summary`` aggregates them. A span's self time is its
duration minus the durations of its direct children on the same thread,
so time a thread spends waiting on a pool stays with the waiting span.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "blochgen": ("generate_pair_equations", "generate_single_atom_equations"),
    "collisional": ("assemble_PQ", "schur_reduce", "spectral_decompose",
                    "solve_collisional_integrals"),
    "noninteracting": ("solve_single_system", "perturbative_coefficients",
                       "steady_state_two_level"),
    "perturbative": ("pair_correlators_order2", "pair_correlators_order3",
                     "collisional_integral_V13_order3", "chi3_interacting"),
    "quadrature": ("vdw_k_integral",),
    "observables": ("observable_set",),
    "scan": ("run_scan", "compute_row", "write_csv"),
}
# evaluations of the callable returned by SpectralSystem.feedback_map
FEEDBACK_SPAN = "collisional.G"
SOLVE_SPAN = "collisional.solve_collisional_integrals"

SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns
) + (FEEDBACK_SPAN,)
COUNTER_NAMES = (
    "collisional.iterations",
    "collisional.continuation_steps",
    "collisional.newton_points",
    "quadrature.nodes",
)


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.param_keys: set = set()


def _param_key(params) -> tuple | None:
    """Probe-independent identity of a parameter set (all fields but omega_p)."""
    if not dataclasses.is_dataclass(params):
        return None
    return tuple((f.name, getattr(params, f.name))
                 for f in dataclasses.fields(params) if f.name != "omega_p")


def _count_keys(result, args, st):
    if args:
        key = _param_key(args[0])
        if key is not None:
            st.param_keys.add(key)


def _count_solve(result, args, st):
    st.counters["collisional.iterations"] += getattr(result, "iterations", 0)
    st.counters["collisional.continuation_steps"] += getattr(
        result, "continuation_steps", 0)
    st.counters["collisional.newton_points"] += bool(
        getattr(result, "used_newton", False))


def _count_nodes(result, args, st):
    st.counters["quadrature.nodes"] += getattr(result, "nodes", 0)


_HOOKS = {
    "blochgen.generate_pair_equations": _count_keys,
    "blochgen.generate_single_atom_equations": _count_keys,
    SOLVE_SPAN: _count_solve,
    "quadrature.vdw_k_integral": _count_nodes,
}


class Tracer:
    """Records spans and work counts of wrapped functions, per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.state = st
        return st

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(st.spans))
            st.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, args, st)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package: str = "rydeit", layers: dict = LAYERS) -> None:
        """Wrap every listed function wherever the package's modules bind it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for layer, names in layers.items():
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                mod = None
            for fname in names:
                full = f"{layer}.{fname}"
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    self.absent.append(full)
                    continue
                traced = self.wrap(full, orig, _HOOKS.get(full))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, traced)
        self._install_feedback(sys.modules.get(f"{package}.collisional"))

    def _install_feedback(self, collisional) -> None:
        cls = getattr(collisional, "SpectralSystem", None)
        method = getattr(cls, "feedback_map", None)
        if method is None:
            self.absent.append(FEEDBACK_SPAN)
            return

        def feedback_map(spectral, *args, **kwargs):
            return self.wrap(FEEDBACK_SPAN, method(spectral, *args, **kwargs))

        cls.feedback_map = functools.update_wrapper(feedback_map, method)

    def summary(self, main_ident: int) -> dict:
        """Calls, self seconds, work counts and per-solve latencies.

        ``main_self_s`` sums the self times on the thread ``main_ident``,
        which ran the pass; over the pass wall time it is the coverage.
        """
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        counters: Counter = Counter()
        keys: set = set()
        solve_ms: list[float] = []
        main_self = 0.0
        with self._lock:
            states = list(self._threads)
        for st in states:
            child = [0.0] * len(st.spans)
            for _, t0, t1, parent in st.spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for (name, t0, t1, _), inner in zip(st.spans, child):
                own = (t1 - t0) - inner
                calls[name] += 1
                self_s[name] += own
                if st.ident == main_ident:
                    main_self += own
                if name == SOLVE_SPAN:
                    solve_ms.append((t1 - t0) * 1e3)
            counters.update(st.counters)
            keys |= st.param_keys
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": {name: counters[name] for name in COUNTER_NAMES},
            "param_keys": len(keys),
            "solve_ms": solve_ms,
            "main_self_s": main_self,
            "absent": list(self.absent),
        }
