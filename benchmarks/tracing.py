"""Spans around calls into corechain's public functions, for the traced run only.

The tracer rebinds each public name where its caller looks it up (a module
attribute), so nothing inside the package changes.  Spans stay in memory as
(name, start, end, parent span, op id) and are written when the run ends.
A layer's self time is its spans' durations minus their child spans'.
The untraced timed run installs none of this; `installed_wrappers` proves it.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from time import perf_counter

# (module, attribute, span name): every place the benchmarked paths look a
# layer's public function up.  `analysis` imports evolve, mirror_map and
# mirror_certificate by name, and `robustness_fit` finds `timing_error` as a
# module global, so those bindings are wrapped where `analysis` sees them.
# `serialize.dumps` is left alone: it recurses through its own global, and
# `write_json` already covers it.
TARGETS = (
    ("gates", "execute", "gates.execute"),
    ("gates", "program_unitary", "gates.program_unitary"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("analysis", "evolve", "dynamics.evolve"),
    ("dynamics", "mirror_map", "dynamics.mirror_map"),
    ("analysis", "mirror_map", "dynamics.mirror_map"),
    ("dynamics", "random_state", "dynamics.random_state"),
    ("chain", "reconstruct_profile", "chain.reconstruct_profile"),
    ("chain", "mirror_certificate", "chain.mirror_certificate"),
    ("analysis", "mirror_certificate", "chain.mirror_certificate"),
    ("analysis", "robustness_fit", "analysis.robustness_fit"),
    ("analysis", "timing_error", "analysis.timing_error"),
    ("analysis", "cost_of_program", "analysis.cost_of_program"),
    ("applications", "qft_program", "applications.build"),
    ("applications", "trotter_program", "applications.build"),
    ("applications", "ancilla_pauli_program", "applications.build"),
    ("applications", "direct_pauli_program", "applications.build"),
    ("serialize", "write_json", "serialize"),
    ("serialize", "write_csv", "serialize"),
    ("serialize", "profile_to_dict", "serialize"),
    ("serialize", "profile_from_dict", "serialize"),
    ("serialize", "spectrum_from_dict", "serialize"),
    ("serialize", "certificate_to_dict", "serialize"),
    ("serialize", "program_to_dict", "serialize"),
    ("serialize", "program_from_dict", "serialize"),
    ("serialize", "cost_report_to_dict", "serialize"),
    ("serialize", "robustness_report_to_dict", "serialize"),
    ("cli", "main", "cli.main"),
)

# lru caches in `dynamics` whose cache_info() deltas give builds (misses) and hits
CACHES = {"eigensystem": "_block_eigensystems", "propagator": "_block_propagators"}

_MARK = "__benchmark_span__"


def _count_program(counts: Counter, program, columns: int) -> None:
    counts["gates.instructions.evolve"] += program.free_evolution_count
    counts["gates.instructions.swap"] += program.swap_count
    counts["gates.instructions.local"] += program.local_count
    counts["gates.amplitude_columns"] += columns


def _count_execute(counts, args):
    _count_program(counts, args[0], 1)


def _count_unitary(counts, args):
    _count_program(counts, args[0], args[0].layout.dim)


def _count_written(counts, args):
    counts["serialize.bytes_written"] += os.path.getsize(args[0])


COUNTERS = {
    ("gates", "execute"): _count_execute,
    ("gates", "program_unitary"): _count_unitary,
    ("serialize", "write_json"): _count_written,
    ("serialize", "write_csv"): _count_written,
}


def installed_wrappers(cc) -> int:
    """How many traced names are currently rebound to a span wrapper."""
    return sum(hasattr(getattr(getattr(cc, m), attr), _MARK) for m, attr, _ in TARGETS)


def cache_info(cc) -> dict:
    return {key: getattr(cc.dynamics, attr).cache_info() for key, attr in CACHES.items()}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None  # id of the op in progress; None during set-up
        self._stack: list[int] = []
        self._originals: list = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[span] = (name, start, end, parent, tracer.op)
                if count is not None:
                    count(tracer.counts, args)

        setattr(traced, _MARK, name)
        return traced

    def install(self, cc) -> None:
        for module_name, attr, name in TARGETS:
            module = getattr(cc, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, COUNTERS.get((module_name, attr))))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def layers(self) -> dict:
        """Calls and self seconds per span name."""
        child_time = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, span)) for span in self.spans]}, fh)
