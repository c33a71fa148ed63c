"""Layer tracing installed from outside the package.

The tracer wraps the public entry points of each layer, patching every
module attribute that refers to the original so that names imported with
``from ... import`` are traced too, and restores them on ``uninstall``.
Each wrapped call adds to its layer's call count, total time and self time
(its duration minus the time of the traced calls inside it).  Hot kernels
are only aggregated; the coarse boundaries (CLI command, residual per point,
memo miss, closed-form evaluation) also keep one span each, in memory, for
``run.py`` to write out.

Memo hits and misses are counted without reading the memo: the function
handed to ``Superfield(...)`` is wrapped, so each call of it is a miss, and
``evaluate`` calls minus misses are hits.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from susygordon import cli, darboux, geometry, reporting, solutions, ssge, worked_examples
from susygordon import grassmann, jets, superfield, supermatrix

RESIDUALS = ("ssge_residual", "zcc_fermionic_residual", "zcc_bosonic_residual",
             "build_lax_bosonic", "lsp_residual", "riccati_residuals", "backlund_residuals")

COUNTED = ("jets.mul", "jets.add", "jets.analytic", "grassmann.mul", "grassmann.add",
           "grassmann.analytic_lift", "supermatrix.matmul", "supermatrix.bracket",
           "supermatrix.map_entries", "darboux.delta_determinant", "darboux.x_product")

#: per-layer metric name -> unit; every workload reports all of them
UNITS: dict[str, str] = {
    **{f"{layer}.{field}": unit for layer in COUNTED
       for field, unit in (("calls", "calls/cycle"), ("self_s", "s/cycle"))},
    "grassmann.mul.terms_mean": "terms",
    "grassmann.mul.pair_useful_ratio": "ratio",
    "superfield.evaluate.calls": "calls/cycle",
    "superfield.evaluate.misses": "calls/cycle",
    "superfield.memo.hit_ratio": "ratio",
    "superfield.miss.self_s": "s/cycle",
    "darboux.closed_form.evaluate_s": "s/cycle",
    **{f"ssge.{name}.{field}": unit for name in RESIDUALS
       for field, unit in (("s_per_point", "s"), ("self_s", "s/cycle"))},
    "geometry.surface_data.s_per_point": "s",
    "geometry.surface_data.self_s": "s/cycle",
    "worked_examples.checks.s_per_point": "s",
    "solutions.load_solution.s": "s",
    "reporting.sample_points.s": "s",
    "reporting.write_report.s": "s",
    "reporting.report_bytes": "bytes",
    "cli.main.s_per_command": "s",
    "cli.self_s": "s/cycle",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def per_call(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        #: (span id, parent span id, name, start, end); parent 0 is the root
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.missing: list[str] = []
        self._stack: list[list] = [[0.0, 0]]   # frames: [child seconds, span id]
        self._patches: list[tuple[object, str, object]] = []
        self._closed_forms: dict[int, object] = {}
        self.mul_operands = 0
        self.mul_terms = 0
        self.pairs_tried = 0
        self.pairs_disjoint = 0
        self.report_bytes = 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False, after=None):
        layer = self.layers.setdefault(name, Layer())
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans) + 1 if span else parent[1]
            frame = [0.0, sid]
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                layer.calls += 1
                layer.total_s += elapsed
                layer.self_s += elapsed - frame[0]
                parent[0] += elapsed
                if span:
                    spans[sid - 1] = (sid, parent[1], name, start, end)
            if after is not None:
                after(result)
            return result
        return traced

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._patch_attr(cls, attr, self.wrap(name, original, **kw))

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap ``module.attr`` wherever a package module holds a reference to it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        traced = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "susygordon":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, key, traced)

    # -- installing over the package ------------------------------------------

    def install(self) -> None:
        jet, elem = jets.JetScalar, grassmann.GrassmannElement
        for attr in ("__mul__", "__rmul__"):
            self.patch_method(jet, attr, "jets.mul")
        for attr in ("__add__", "__radd__"):
            self.patch_method(jet, attr, "jets.add")
        for attr in ("analytic", "analytic_derivatives"):
            self.patch_method(jet, attr, "jets.analytic")
        self._install_grassmann_mul(elem)
        for attr in ("__add__", "__radd__"):
            self.patch_method(elem, attr, "grassmann.add")
        self.patch_function(grassmann, "analytic_lift", "grassmann.analytic_lift")
        matrix = supermatrix.SuperMatrix
        self.patch_method(matrix, "__matmul__", "supermatrix.matmul")
        self.patch_method(matrix, "bracket", "supermatrix.bracket")
        self.patch_method(matrix, "map_entries", "supermatrix.map_entries")
        self._install_superfield(superfield.Superfield)
        self.patch_function(darboux, "closed_form_sn", "darboux.closed_form_sn",
                            after=self._mark_closed_form)
        self.patch_function(darboux, "delta_determinant", "darboux.delta_determinant")
        self.patch_function(darboux, "x_product", "darboux.x_product")
        for name in RESIDUALS:
            self.patch_function(ssge, name, f"ssge.{name}", span=True)
        self.patch_function(geometry, "surface_data", "geometry.surface_data")
        for name in ("example1_checks", "example2_checks"):
            self.patch_function(worked_examples, name, "worked_examples.checks")
        self.patch_function(solutions, "load_solution", "solutions.load_solution")
        self.patch_function(reporting, "sample_points", "reporting.sample_points")
        self.patch_function(reporting, "write_report", "reporting.write_report",
                            after=self._count_bytes)
        self.patch_function(cli, "main", "cli.main", span=True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._closed_forms.clear()

    def _install_grassmann_mul(self, elem) -> None:
        traced = self.wrap("grassmann.mul", elem.__mul__)

        def mul(a, b):
            if isinstance(b, elem):
                ka, kb = a.value_terms().keys(), b.value_terms().keys()
                self.mul_operands += 2
                self.mul_terms += len(ka) + len(kb)
                self.pairs_tried += len(ka) * len(kb)
                self.pairs_disjoint += sum(1 for ma in ka for mb in kb if not ma & mb)
            return traced(a, b)
        self._patch_attr(elem, "__mul__", mul)

    def _install_superfield(self, field_cls) -> None:
        init = field_cls.__init__
        evaluate = self.wrap("superfield.evaluate", field_cls.evaluate)
        closed_form = self.wrap("darboux.closed_form", evaluate, span=True)
        closed = self._closed_forms

        def traced_init(sf, fn, *args, **kwargs):
            init(sf, self.wrap("superfield.miss", fn, span=True), *args, **kwargs)

        def traced_evaluate(sf, pt):
            return (closed_form if id(sf) in closed else evaluate)(sf, pt)
        self._patch_attr(field_cls, "__init__", traced_init)
        self._patch_attr(field_cls, "evaluate", traced_evaluate)
        self._patch_attr(field_cls, "__call__", traced_evaluate)

    def _mark_closed_form(self, field) -> None:
        self._closed_forms[id(field)] = field   # the reference keeps the id unique

    def _count_bytes(self, text: str) -> None:
        self.report_bytes += len(text.encode("utf-8"))

    # -- metrics ---------------------------------------------------------------

    def metrics(self, cycles: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics per traced cycle (per call where the name says so)."""
        layer = lambda name: self.layers.get(name, Layer())  # noqa: E731
        out: dict[str, float] = {}
        for key in UNITS:
            name, _, field = key.rpartition(".")
            if field == "calls":
                out[key] = layer(name).calls / cycles
            elif field == "self_s":
                out[key] = layer(name).self_s / cycles
            elif field in ("s_per_point", "s", "s_per_command"):
                out[key] = layer(name).per_call()
        evaluate = layer("superfield.evaluate").calls
        misses = layer("superfield.miss").calls
        reports = layer("reporting.write_report").calls
        out.update({
            "grassmann.mul.terms_mean": self.mul_terms / max(self.mul_operands, 1),
            "grassmann.mul.pair_useful_ratio": self.pairs_disjoint / max(self.pairs_tried, 1),
            "superfield.evaluate.misses": misses / cycles,
            "superfield.memo.hit_ratio": (evaluate - misses) / evaluate if evaluate else 0.0,
            "darboux.closed_form.evaluate_s": layer("darboux.closed_form").total_s / cycles,
            "reporting.report_bytes": self.report_bytes / reports if reports else 0.0,
            "cli.self_s": layer("cli.main").self_s / cycles,
            "trace.overhead_ratio": overhead_ratio,
        })
        return out
