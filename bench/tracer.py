"""Span tracer that wraps berglab's public functions from outside.

Modules import functions by name (``cli`` and ``analysis`` bind
``smallest_singular_value`` and ``toeplitz_harmonic``; ``berezin`` binds
``kernel_eval`` and ``toeplitz_harmonic``), so wrapping only the
defining module would miss those calls.  ``Tracer.install`` therefore
rebinds every public function in every berglab module that holds it,
and wraps the symbol classes' ``series`` and ``__call__`` and
``QuadratureSpec.points``.  ``Tracer.uninstall`` restores every
original.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

MODULES = ("disc", "symbols", "toeplitz", "berezin", "analysis", "cli")


def _matrix_size(t) -> int:
    return int(getattr(t, "matrix", t).shape[0])


def _file_bytes(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _quadrature_gflop(args, kwargs, result) -> dict:
    from berglab.disc import QuadratureSpec

    spec = kwargs.get("spec", args[2] if len(args) > 2 else QuadratureSpec())
    m = spec.radial_nodes * spec.angular_nodes
    return {"gflop": 8.0 * result.n**2 * m / 1e9}


def _run_outputs(args, kwargs, result) -> dict:
    outputs = result.outputs
    manifest = os.path.join(
        kwargs.get("output_dir", args[1] if len(args) > 1 else None), "manifest.json"
    )
    return {
        "files": len(outputs) + 1,
        "bytes": sum(o["bytes"] for o in outputs) + os.path.getsize(manifest),
    }


#: attributes recorded when a span ends normally: f(args, kwargs, result)
COUNTERS = {
    "disc.kernel_eval": lambda a, k, r: {"points": int(r.size)},
    "symbols.eval": lambda a, k, r: {"points": int(getattr(r, "size", 1))},
    "symbols.series": lambda a, k, r: {"coeffs": len(r.coeffs)},
    "toeplitz.toeplitz_quadrature": _quadrature_gflop,
    "toeplitz.matrix_to_json": _file_bytes,
    "toeplitz.matrix_to_csv": _file_bytes,
    "berezin.grid_to_json": _file_bytes,
    "berezin.grid_to_csv": _file_bytes,
    "analysis.smallest_singular_value": lambda a, k, r: {"n3": _matrix_size(a[0]) ** 3},
    "cli.run_scenario": _run_outputs,
}


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, attrs."""

    def __init__(self):
        # span = [name, parent index, start, end, attrs, error type, request]
        self.spans: list[list] = []
        #: identifier stamped on every span, e.g. the scenario being run
        self.request: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else None, clock(), None, None, None, tracer.request]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and the traced methods, in every importer."""
        import berglab.cli  # noqa: F401  (loads every module)
        from berglab import disc, symbols

        importers = [m for n, m in sys.modules.items() if n == "berglab" or n.startswith("berglab.")]
        for short in MODULES:
            module = sys.modules[f"berglab.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for importer in importers:
                    for bound, value in list(vars(importer).items()):
                        if value is fn:
                            self._replace(importer, bound, wrapped)
        self._replace(disc.QuadratureSpec, "points",
                      self._wrap("disc.quadrature_points", disc.QuadratureSpec.points))
        for cls in (*symbols.AnalyticSymbol.__subclasses__(), symbols.HarmonicSymbol):
            for method, name in (("__call__", "symbols.eval"), ("series", "symbols.series")):
                if method in cls.__dict__:
                    self._replace(cls, method, self._wrap(name, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans: list[list]) -> dict:
    """Per-name inclusive time, calls, counters and ``raised.<Error>`` counts;
    per-module self time.

    A name's inclusive time and counts use only its outermost spans, so
    a call nested in a call of the same name (``HarmonicSymbol.__call__``
    evaluating ``g``) is not counted twice.  A module's self time is the
    sum over its spans of duration minus the direct children's
    durations, so the self times of all modules add up to the root
    spans' total.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    per_name: dict[str, dict] = {}
    self_s = {m: 0.0 for m in MODULES}
    root_s = 0.0
    for i, (name, parent, start, end, attrs, error, _) in enumerate(spans):
        duration = end - start
        self_s[name.split(".", 1)[0]] += duration - child_time[i]
        if parent is None:
            root_s += duration
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][1]
        if p is not None:
            continue
        entry = per_name.setdefault(name, {"s": 0.0, "calls": 0})
        entry["s"] += duration
        entry["calls"] += 1
        if error is not None:
            attrs = {f"raised.{error}": 1}
        for key, value in (attrs or {}).items():
            entry[key] = entry.get(key, 0) + value
    return {"names": per_name, "self_s": self_s, "root_s": root_s}
