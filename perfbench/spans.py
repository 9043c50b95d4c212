"""Outside-in tracing of the ``hyperfair`` package.

:class:`Tracer` wraps every public function of every ``hyperfair``
module in the namespace where callers look it up.  ``simplex_solve``,
for example, is wrapped as ``partition.simplex_solve`` and as
``relations.simplex_solve``, because that is where ``solve_alpha`` and
``solve_relations`` find it.  The wrapper list comes from scanning the
module namespaces, so renamed or moved functions stay covered.  Each
call records a span ``(name, via, start_ns, end_ns, parent, instance)``
in memory; ``name`` is the defining module and function
(``simplex.simplex_solve``) and ``via`` the module whose namespace the
call went through.  Nothing is wrapped until :meth:`Tracer.install`,
and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

PACKAGE = "hyperfair"


def package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions(module: types.ModuleType):
    """(attribute, function) pairs for the package's public functions in ``module``."""
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                and value.__module__.startswith(PACKAGE)):
            yield attr, value


def short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Span recorder plus argument/result observers at the wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, types.FunctionType]] = []
        self.lp_rows_max = 0
        self.lp_cols_max = 0
        self.witness_bits_max = 0
        self.counts: dict[str, int] = defaultdict(int)

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in package_modules():
            for attr, fn in list(public_functions(module)):
                name = f"{short(fn.__module__)}.{fn.__name__}"
                setattr(module, attr, self._wrap(fn, name, short(module.__name__)))
                self._saved.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, via: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, via, start, end, parent, self.instance)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- shape counters seen at the wrappers ---------------------------------

    def _observe_simplex_simplex_solve(self, args, outcome) -> None:
        lp = args[0]
        self.lp_rows_max = max(self.lp_rows_max, lp.constraints.rows)
        self.lp_cols_max = max(self.lp_cols_max, lp.constraints.cols)
        if outcome.witness:
            bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
                       for x in outcome.witness)
            self.witness_bits_max = max(self.witness_bits_max, bits)
        if outcome.status.value == "infeasible":
            self.counts["simplex.infeasible"] += 1

    def _observe_relations_solve_relations(self, args, solution) -> None:
        if not solution.feasible:
            self.counts["relations.infeasible"] += 1

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms (outermost calls only) and self ms."""
        covered = [0] * len(self.spans)
        for name, _via, start, end, parent, _inst in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for idx, (name, _via, start, end, parent, _inst) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += (end - start - covered[idx]) / 1e6
            if not self._inside_same(idx, name):
                entry["ms"] += (end - start) / 1e6
        return out

    def _inside_same(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False
