"""Span recording for the traced benchmark run.

`Tracer.install` replaces, for the duration of one traced op, the names that
procmap's own callers look up (for example `procmap.cli.solve_M_elements` or
`procmap.scenarios.run_process`) with wrappers that record one span per call.
A span is `[op, name, start, end, parent, amount]`: the benchmark operation it
belongs to, the layer name, `perf_counter` start and end, the index of the
enclosing span (-1 for a root) and a work amount such as bytes emitted.
Spans stay in memory until the run ends; self times are computed afterwards.

No per-element function (such as `jsonio.format_float`) is wrapped, because
the wrapper's cost would swamp the work it measures.
"""

from __future__ import annotations

import importlib
from time import perf_counter


def _text_bytes(result) -> int:
    return len(result)


def _matrix_entries(result) -> int:
    return int(result.size)


# (module, attribute looked up by the caller, span name, work amount or None)
TARGETS = (
    ("procmap.cli", "main", "cli.main", None),
    ("procmap.cli", "parse_scenario", "scenarios.parse_scenario", None),
    ("procmap.cli", "simulate_scenario", "scenarios.simulate_scenario", None),
    ("procmap.scenarios", "apply_pin_map", "prep.prepare", None),
    ("procmap.scenarios", "prepare_stochastic", "prep.prepare", None),
    ("procmap.scenarios", "prepare_projective", "prep.prepare", None),
    ("procmap.scenarios", "prepare_generalized", "prep.prepare", None),
    ("procmap.scenarios", "run_process", "dynamics.run_process", None),
    ("procmap.scenarios", "unitary_from_hamiltonian", "dynamics.unitary_from_hamiltonian", None),
    ("procmap.jsonio", "dumps", "jsonio.dumps", _text_bytes),
    ("procmap.jsonio", "matrix_from_json", "jsonio.matrix_from_json", _matrix_entries),
    ("procmap.records", "Dataset.from_json", "records.dataset_from_json", None),
    ("procmap.cli", "reconstruct_linear_map", "linear_tomo.reconstruct_linear_map", None),
    ("procmap.cli", "map_diagnostics", "linear_tomo.map_diagnostics", None),
    ("procmap.cli", "solve_M_elements", "bilinear_tomo.solve_M_elements", None),
    ("procmap.cli", "build_M_from_dynamics", "bilinear_tomo.build_M_from_dynamics", None),
    ("procmap.cli", "element_table_from_map", "bilinear_tomo.element_table_from_map", None),
    ("procmap.cli", "classify", "verify.classify", None),
)


class Tracer:
    """Records nested spans around procmap's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr_path, name, amount in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, name, amount))
            else:
                replacement = self._wrap(raw, name, amount)
            setattr(owner, attr, replacement)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, func, name, amount):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if amount is not None:
                span[5] = amount(result)
            return result

        return traced

    def extend(self, spans, op: int) -> None:
        """Append spans recorded by a traced child process as operation `op`."""
        offset = len(self.spans)
        for _, name, start, end, parent, amount in spans:
            self.spans.append([op, name, start, end, parent + offset if parent >= 0 else -1, amount])

    def totals(self) -> dict[str, tuple[float, int, int]]:
        """Per span name: (self seconds, calls, work amount), summed over every span.

        A span's self time is its duration minus the durations of its direct
        children; the benchmark is single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for (_, name, start, end, _, amount), inner in zip(self.spans, child_time):
            total = out.setdefault(name, [0.0, 0, 0])
            total[0] += (end - start) - inner
            total[1] += 1
            total[2] += amount
        return {name: (t[0], t[1], t[2]) for name, t in out.items()}
