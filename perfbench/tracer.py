"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each function named in ``spec.TRACED`` with a
wrapper at every place it is bound: the defining module, every ``gmaxent``
module that imported it by name, and the class for methods. A wrapper counts
calls and self time, which is its span's duration minus the durations of the
wrapped calls made inside it. ``uninstall`` puts the originals back; the
bindings are found once, so switching tracing on and off is cheap.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from spec import TRACED


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.top_ns = 0  # time inside outermost wrapped calls
        self.eigh_n3 = 0
        self.newton_iters: list[int] = []
        self.fw_iters: list[int] = []
        self.gradient_fallbacks = 0
        self.dropped_constraints = 0
        self._stack: list[int] = []
        self._patched = None  # bindings, found on the first install

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                children = stack.pop()
                calls[name] += 1
                self_ns[name] += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    self.top_ns += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_eigh(self, args, result):
        a = np.asarray(args[0])
        self.eigh_n3 += int(np.prod(a.shape[:-2], dtype=np.int64)) * a.shape[-1] ** 3

    def _record_solution(self, iterations: list[int], solution):
        iterations.append(int(solution.iterations))
        self.gradient_fallbacks += solution.diagnostics.gradient_fallbacks
        self.dropped_constraints += len(solution.diagnostics.dropped_indices)

    def _bindings(self):
        """(target, attribute, original, wrapper) for every binding of every traced function."""
        hooks = {
            "linalg.eigh": self._after_eigh,
            "solver.solve_dual": lambda args, sol: self._record_solution(self.newton_iters, sol),
            "solver.solve_polytope": lambda args, sol: self._record_solution(self.fw_iters, sol),
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "gmaxent" or n.startswith("gmaxent.")]
        bindings = []
        for _, stem, module_name, path in TRACED:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(stem, original, hooks.get(stem))
            targets = [(owner, attr)]
            if not isinstance(owner, type):
                targets += [
                    (m, name) for m in modules if m is not owner
                    for name, value in vars(m).items() if value is original
                ]
            bindings += [(target, name, original, wrapper) for target, name in targets]
        return bindings

    def install(self):
        if self._patched is None:
            self._patched = self._bindings()
        for target, name, _, wrapper in self._patched:
            setattr(target, name, wrapper)

    def uninstall(self):
        for target, name, original, _ in reversed(self._patched or []):
            setattr(target, name, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, stem, _, _ in TRACED:
            out[f"{stem}.calls"] = self.calls[stem]
            out[f"{stem}.self_ms"] = self.self_ns[stem] / 1e6
        fw = self.fw_iters or [0]
        newton = self.newton_iters or [0]
        out.update({
            "linalg.eigh.n3": self.eigh_n3,
            "solver.newton_iters.sum": sum(newton),
            "solver.newton_iters.max": max(newton),
            "solver.fw_iters.sum": sum(fw),
            "solver.fw_iters.p50": float(np.median(fw)),
            "solver.fw_iters.max": max(fw),
            "solver.gradient_fallbacks": self.gradient_fallbacks,
            "solver.dropped_constraints": self.dropped_constraints,
        })
        return out
