"""Spans around calls into realtoric, recorded from outside the package.

:meth:`Tracer.install` replaces a public function at every name that a
``realtoric`` module binds to it, so a call is seen whichever module makes
it: ``homology.smith_normal_form`` and ``intmat.smith_normal_form`` are the
same function under two names, and both get the wrapper. Modules are looked
up with :func:`importlib.import_module`, because the package re-exports some
functions under their module's name (``realtoric.homology`` is the function).

A span is ``[id, parent id, name, start ns, end ns]``. Spans stay in memory
until :meth:`Tracer.write`. A span's self time is its duration minus the
durations of its direct children, which nest inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

Observer = Callable[["Tracer", tuple, object], None]


def _count_snf(tracer: "Tracer", args: tuple, result: object) -> None:
    a = args[0]
    tracer.counts["intmat.snf_entries"] += len(a) * (len(a[0]) if a else 0)


def _count_lattice(tracer: "Tracer", args: tuple, result: object) -> None:
    vertices = args[0].vertices
    xs = [w[0] for w in vertices]
    ys = [w[1] for w in vertices]
    tracer.counts["polytope.lattice_points.count"] += len(result)
    tracer.counts["polytope.lattice_points.box_cells"] += (
        (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
    )


def _count_ample(tracer: "Tracer", args: tuple, result: object) -> None:
    bits = max(abs(c) for c in result.coeffs).bit_length()
    key = "polytope.find_ample.max_coeff_bits"
    tracer.maxima[key] = max(tracer.maxima.get(key, 0), bits)


# "<module>.<function>" inside the realtoric package -> observer, called
# with the arguments and result after a normal return to update counters.
TARGETS: dict[str, Observer | None] = {
    "fan.normalize_fan": None,
    "fan.random_fan": None,
    "fan.minimal_model": None,
    "intmat.smith_normal_form": _count_snf,
    "intmat.mat_mul": None,
    "gluing.build_real_complex": None,
    "homology.homology": None,
    "homology.verify": None,
    "homology.report_to_json": None,
    "polytope.find_ample": _count_ample,
    "polytope.polygon_from_divisor": None,
    "polytope.lattice_points": _count_lattice,
    "moment.moment_map": None,
    "moment.run_moment_checks": None,
    "cli.run": None,
}


class Tracer:
    """In-memory spans and exact counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [
            len(self.spans),
            self._stack[-1] if self._stack else -1,
            name,
            time.perf_counter_ns(),
            0,
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        record[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, such as one benchmark operation."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _wrap(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(record)
                self.counts[f"{name}.raised.{getattr(exc, 'code', type(exc).__name__)}"] += 1
                raise
            self._close(record)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each of TARGETS at every name the realtoric modules bind to it."""
        owners = {
            qualname: importlib.import_module(f"realtoric.{qualname.rsplit('.', 1)[0]}")
            for qualname in TARGETS
        }
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "realtoric" or n.startswith("realtoric.")
        ]
        for qualname, observe in TARGETS.items():
            original = getattr(owners[qualname], qualname.rsplit(".", 1)[1])
            wrapper = self._wrap(qualname, original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name call counts, total and self nanoseconds, and counters."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_ns: Counter = Counter()
        names = {}
        for sid, parent, name, start, end in self.spans:
            names[sid] = name
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start
            if parent >= 0:
                self_ns[names[parent]] -= end - start
        return {
            "calls": dict(calls),
            "total_ns": dict(total),
            "self_ns": dict(self_ns),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def export(self) -> dict:
        """Spans and counters in a form another process can :meth:`adopt`."""
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima}

    def adopt(self, payload: dict, parent: int) -> None:
        """Merge what another process exported, its root spans under ``parent``.

        Both processes read the same monotonic clock, so start and end times
        are comparable.
        """
        offset = len(self.spans)
        for sid, par, name, start, end in payload["spans"]:
            self.spans.append(
                [sid + offset, parent if par < 0 else par + offset, name, start, end]
            )
        self.counts.update(payload["counts"])
        for key, value in payload["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    def write(self, path) -> None:
        """Write every span as JSON: a list of [id, parent, name, start, end]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
