"""Traced mode: spans and counts at the boundary of each torsionlab layer.

``Tracer.install`` rebinds each traced public function at every module
attribute of torsionlab that binds it (``hodge.scalar_torsion_eigen`` as
imported into ``glue``, ``spectral`` and ``cli`` too), and
``FormMatrix.__matmul__`` on its class; ``uninstall`` puts the
originals back.  Spans (name, start, end, parent) and counts are kept in
memory and written out when the run ends.  Nothing is wrapped while the
tracer is not installed, so untraced runs measure the program as is.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# Layers whose public functions get a span, keyed by module.
SPANNED = {
    "complexes": ("torsion_form", "tilde_f", "char_form", "complex_from_json"),
    "hodge": ("scalar_torsion_eigen", "induced_gram", "cohomology_class_basis"),
    "spectral": ("pages", "three_column_les"),
    "morse": ("thom_smale", "psi_maps", "equivariant_scalar_torsion"),
    "analytic": ("torsion_via_heat_integral", "family_log_det"),
    "glue": ("verify_gluing_degree0", "verify_morse_side", "verify_double_formula"),
    "cli": ("run_torsion",),
}
# Called too often, and too cheaply, for a span each: counted only.
COUNTED = {"analytic": ("heat_supertrace",)}

# (metric name, unit).  Counts and times are per round of the workload,
# so runs of different length compare; nodes_per_form is per
# torsion_form call.
PER_LAYER = [
    ("quad.calls", "count/round"),
    ("quad.panels", "count/round"),
    ("quad.nodes_per_form", "nodes/form"),
    ("algebra.stack.calls", "count/round"),
    ("algebra.stack.slices", "count/round"),
    ("algebra.stack.self_ms", "ms/round"),
    ("algebra.form.calls", "count/round"),
    ("algebra.form.self_ms", "ms/round"),
    ("algebra.form_matmul.calls", "count/round"),
    ("complexes.torsion_form.self_ms", "ms/round"),
    ("complexes.tilde_f.ms", "ms/round"),
    ("complexes.char_form.ms", "ms/round"),
    ("complexes.complex_from_json.ms", "ms/round"),
    ("hodge.scalar_torsion_eigen.ms", "ms/round"),
    ("hodge.induced_gram.ms", "ms/round"),
    ("hodge.cohomology_class_basis.ms", "ms/round"),
    ("spectral.pages.ms", "ms/round"),
    ("spectral.three_column_les.ms", "ms/round"),
    ("morse.thom_smale.ms", "ms/round"),
    ("morse.psi_maps.ms", "ms/round"),
    ("morse.equivariant_scalar_torsion.ms", "ms/round"),
    ("analytic.torsion_via_heat_integral.ms", "ms/round"),
    ("analytic.heat_supertrace.calls", "count/round"),
    ("analytic.family_log_det.ms", "ms/round"),
    ("glue.verify_gluing_degree0.ms", "ms/round"),
    ("glue.verify_morse_side.ms", "ms/round"),
    ("glue.verify_double_formula.ms", "ms/round"),
    ("cli.run_torsion.ms", "ms/round"),
    ("first_call_ms", "ms"),
    ("trace.untraced_round_ms", "ms/round"),
    ("trace.traced_round_ms", "ms/round"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.outermost = []      # no open span of the same name when it began
        self.counts = Counter()
        self._open = []
        self._open_names = Counter()
        self._patches = []

    # ---- recording -----------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        self.outermost.append(self._open_names[name] == 0)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        self._open_names[name] += 1
        return idx

    def _exit(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open.pop()
        self._open_names[span[0]] -= 1

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _matrix_function(self, fn):
        def wrapper(m, *args, **kwargs):
            if isinstance(m, np.ndarray):
                name = "algebra.stack"
                self.counts["algebra.stack.slices"] += int(np.prod(m.shape[:-2]))
            else:
                name = "algebra.form"
            idx = self._enter(name)
            try:
                return fn(m, *args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    def _adaptive_quad(self, fn):
        def wrapper(integrand, *args, **kwargs):
            def counted(nodes):
                self.counts["quad.panels"] += 1
                if self._open_names["complexes.torsion_form"]:
                    self.counts["quad.form_nodes"] += len(nodes)
                return integrand(nodes)

            idx = self._enter("quad.adaptive_quad")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    # ---- installing ----------------------------------------------------

    def install(self):
        from torsionlab import algebra, quad

        wrappers = {}
        for layer, names in SPANNED.items():
            mod = sys.modules[f"torsionlab.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._spanned(f"{layer}.{name}", fn))
        for layer, names in COUNTED.items():
            mod = sys.modules[f"torsionlab.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._counted(f"{layer}.{name}.calls", fn))
        wrappers[id(algebra.matrix_function)] = (
            algebra.matrix_function, self._matrix_function(algebra.matrix_function))
        wrappers[id(quad.adaptive_quad)] = (
            quad.adaptive_quad, self._adaptive_quad(quad.adaptive_quad))

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "torsionlab" or name.startswith("torsionlab."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        matmul = algebra.FormMatrix.__matmul__
        self._patches.append((algebra.FormMatrix, "__matmul__", matmul))
        algebra.FormMatrix.__matmul__ = self._counted("algebra.form_matmul.calls", matmul)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ---- results -------------------------------------------------------

    def layers(self) -> dict:
        """Per span name: calls, inclusive ms (outermost spans only, so a
        function reached again through itself is not counted twice) and
        self ms (duration minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            if self.outermost[i]:
                row["ms"] += 1e3 * (end - start)
            row["self_ms"] += 1e3 * (end - start - child[i])
        return out

    def metrics(self, rounds: int, first_call_ms: float, untraced_round_ms: float,
                traced_round_ms: float) -> dict:
        layers = self.layers()

        def layer(name, key):
            return layers.get(name, {}).get(key, 0.0)

        forms = layer("complexes.torsion_form", "calls")
        values = {
            "quad.calls": layer("quad.adaptive_quad", "calls") / rounds,
            "quad.panels": self.counts["quad.panels"] / rounds,
            "quad.nodes_per_form": self.counts["quad.form_nodes"] / forms if forms else 0.0,
            "algebra.stack.calls": layer("algebra.stack", "calls") / rounds,
            "algebra.stack.slices": self.counts["algebra.stack.slices"] / rounds,
            "algebra.stack.self_ms": layer("algebra.stack", "self_ms") / rounds,
            "algebra.form.calls": layer("algebra.form", "calls") / rounds,
            "algebra.form.self_ms": layer("algebra.form", "self_ms") / rounds,
            "algebra.form_matmul.calls": self.counts["algebra.form_matmul.calls"] / rounds,
            "complexes.torsion_form.self_ms": layer("complexes.torsion_form", "self_ms") / rounds,
            "analytic.heat_supertrace.calls": self.counts["analytic.heat_supertrace.calls"] / rounds,
            "first_call_ms": first_call_ms,
            "trace.untraced_round_ms": untraced_round_ms,
            "trace.traced_round_ms": traced_round_ms,
            "trace.overhead_pct": 100.0 * (traced_round_ms - untraced_round_ms) / untraced_round_ms,
        }
        units = dict(PER_LAYER)
        for name in units:
            if name not in values:
                values[name] = layer(name[:-len(".ms")], "ms") / rounds
        return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}

    def write(self, path: str, header: dict):
        base = self.spans[0][1] if self.spans else 0.0
        doc = dict(header)
        doc["layers"] = self.layers()
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [[n, round(s - base, 7), round(e - base, 7), p]
                        for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
