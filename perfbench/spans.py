"""Span tracing from outside the program, for the benchmark's traced runs.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that records a span: name, layer, start, end, parent span
and report id.  Spans stay in memory until the run ends.  ``install`` and
``remove`` swap the wrappers in and out, so untraced passes run the
original functions.

Layers are the program's modules.  ``numpy.linalg.eigvalsh`` and
``scipy.linalg.eig_banded`` are traced too; their spans belong to no layer
and are charged to the nearest traced caller.

A workload does not run every layer.  A metric that would read 0 there
reads FLOOR instead, so that every printed value is positive and a ratio
of two runs stays defined.
"""

from __future__ import annotations

import importlib
import json
import math
import time

FLOOR = 1e-9

LAYERS = ("cli", "algebra", "complexstruct", "dolbeault", "heisenberg1d",
          "ktheory", "riemann", "lattice")


def _box_modes(args, kwargs, result):
    # cohomology_dims and index each run the box at N and at N + 2
    frame, box = args[1], args[3]
    d = 2 * frame.n
    return (2 * box.N + 1) ** d + (2 * box.N + 5) ** d


def _matrix_shape(args, kwargs, result):
    shape = args[0].shape
    return (math.prod(shape[:-2]), shape[-1])


def _search_name(args, kwargs):
    return "riemann.search_exact" if kwargs.get("exact") else "riemann.search_float"


# (module, attribute, span name, layer, info(args, kwargs, result) or None)
WRAPS = [
    ("nctorus.cli", "main", "cli.main", "cli", None),
    ("nctorus.cli", "parse_problem_file", "cli.parse", "cli", None),
    ("nctorus.cli", "canonical_json", "cli.serialize", "cli", lambda a, k, r: len(r)),
    ("nctorus.algebra", "multiply", "algebra.multiply", "algebra", None),
    ("nctorus.complexstruct", "antihol_frame", "complexstruct.frame", "complexstruct", None),
    ("nctorus.dolbeault", "antihol_frame", "complexstruct.frame", "complexstruct", None),
    ("nctorus.complexstruct", "invariant_metric", "complexstruct.metric", "complexstruct", None),
    ("nctorus.dolbeault", "invariant_metric", "complexstruct.metric", "complexstruct", None),
    ("nctorus.complexstruct", "j_from_period", "complexstruct.j_from_period", "complexstruct", None),
    ("nctorus.complexstruct", "j_from_tau", "complexstruct.j_from_tau", "complexstruct", None),
    ("nctorus.complexstruct", "period_from_j", "complexstruct.period_from_j", "complexstruct", None),
    ("nctorus.complexstruct", "block_adapted_frame", "complexstruct.block_adapted_frame",
     "complexstruct", None),
    ("nctorus.complexstruct", "random_complex_structure", "complexstruct.random",
     "complexstruct", None),
    ("nctorus.riemann", "period_from_j", "complexstruct.period_from_j", "complexstruct", None),
    ("nctorus.dolbeault", "cohomology_dims", "dolbeault.cohomology_dims", "dolbeault", _box_modes),
    ("nctorus.dolbeault", "index", "dolbeault.index", "dolbeault", _box_modes),
    ("nctorus.dolbeault", "flatness_curvature", "dolbeault.flatness", "dolbeault", None),
    ("nctorus.heisenberg1d", "standard_module_cohomology", "heisenberg1d.cohomology",
     "heisenberg1d", None),
    ("nctorus.riemann", "standard_module_cohomology", "heisenberg1d.cohomology",
     "heisenberg1d", None),
    ("nctorus.ktheory", "nonalg_certificate", "ktheory.certificate", "ktheory",
     lambda a, k, r: bool(r.certified)),
    ("nctorus.riemann", "riemann_form_search", _search_name, "riemann", None),
    ("nctorus.riemann", "exact_j_from_rational_period", "riemann.exact_j", "riemann", None),
    ("nctorus.riemann", "frobenius_basis", "riemann.frobenius", "riemann", None),
    ("nctorus.riemann", "decompose_riemann_form", "riemann.decompose", "riemann", None),
    ("nctorus.riemann", "hermitian_from_form", "riemann.hermitian", "riemann", None),
    ("nctorus.riemann", "siegel_normalize", "riemann.siegel", "riemann", None),
    ("nctorus.riemann", "detect_block_structure", "riemann.detect_blocks", "riemann", None),
    ("nctorus.riemann", "ncriemann_h0_bound", "riemann.ncriemann", "riemann", None),
    ("nctorus.riemann", "integer_kernel", "lattice.integer_kernel", "lattice", None),
    ("nctorus.riemann", "fraction_rref", "lattice.fraction_rref", "lattice", None),
    ("nctorus.riemann", "fraction_solve", "lattice.fraction_solve", "lattice", None),
    ("nctorus.riemann", "lll_reduce", "lattice.lll_reduce", "lattice", None),
    ("nctorus.riemann", "fraction_det", "lattice.fraction_det", "lattice", None),
    ("nctorus.riemann", "fraction_matrix", "lattice.fraction_matrix", "lattice", None),
    ("nctorus.riemann", "is_positive_definite_exact", "lattice.positive_definite", "lattice",
     None),
    ("nctorus.riemann", "primitive_vector", "lattice.primitive_vector", "lattice", None),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh", None, _matrix_shape),
    ("scipy.linalg", "eig_banded", "scipy.eig_banded", None, None),
]

# Per-layer metrics with their units, as the traced run prints them.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "cli.parse_s": "s", "cli.serialize_s": "s", "cli.report_bytes": "bytes",
    "complexstruct.frame_s": "s", "complexstruct.metric_s": "s",
    "algebra.multiply_calls": "count", "algebra.multiply_s": "s",
    "dolbeault.cohomology_dims_s": "s", "dolbeault.index_s": "s",
    "dolbeault.flatness_s": "s", "dolbeault.box_modes": "count",
    "dolbeault.modes_per_s": "1/s", "dolbeault.eigvalsh_calls": "count",
    "dolbeault.eigvalsh_mats": "count", "dolbeault.eigvalsh_flops": "flop",
    "dolbeault.eigvalsh_max_n": "count", "dolbeault.eigvalsh_s": "s",
    "ktheory.certificate_s": "s", "ktheory.certificates": "count",
    "ktheory.certified_frac": "fraction",
    "riemann.search_float_s": "s", "riemann.search_exact_s": "s",
    "riemann.frobenius_s": "s", "riemann.ncriemann_s": "s",
    "heisenberg1d.cohomology_s": "s", "heisenberg1d.eig_banded_calls": "count",
    "lattice.integer_kernel_s": "s", "lattice.fraction_rref_s": "s",
    "lattice.lll_reduce_s": "s",
    "trace.spans": "count", "trace.overhead_ratio": "ratio",
}

# metric -> span name whose inclusive time (or count) it sums
_TIMES = {
    "cli.parse_s": "cli.parse", "cli.serialize_s": "cli.serialize",
    "complexstruct.frame_s": "complexstruct.frame",
    "complexstruct.metric_s": "complexstruct.metric",
    "algebra.multiply_s": "algebra.multiply",
    "dolbeault.cohomology_dims_s": "dolbeault.cohomology_dims",
    "dolbeault.index_s": "dolbeault.index", "dolbeault.flatness_s": "dolbeault.flatness",
    "ktheory.certificate_s": "ktheory.certificate",
    "riemann.search_float_s": "riemann.search_float",
    "riemann.search_exact_s": "riemann.search_exact",
    "riemann.frobenius_s": "riemann.frobenius", "riemann.ncriemann_s": "riemann.ncriemann",
    "heisenberg1d.cohomology_s": "heisenberg1d.cohomology",
    "lattice.integer_kernel_s": "lattice.integer_kernel",
    "lattice.fraction_rref_s": "lattice.fraction_rref",
    "lattice.lll_reduce_s": "lattice.lll_reduce",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, layer, start, end, parent, report, info)
        self.report = -1
        self._stack: list[int] = []
        self._patches = []
        for module, attr, name, layer, info in WRAPS:
            owner = importlib.import_module(module)
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig, self._wrap(orig, name, layer, info)))

    def _wrap(self, fn, name, layer, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                extra = info(args, kwargs, result) if info and result is not None else None
                spans[sid] = (label, layer, start, end, parent, self.report, extra)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, layer, start, end, parent, report, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "layer": layer,
                                     "start": start, "end": end, "parent": parent,
                                     "report": report, "info": info}) + "\n")

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Per-pass totals of the per-layer metrics over the traced passes.

        `overhead_ratio` is the median traced pass over the median
        untraced one.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        owner = [None] * len(spans)  # nearest layer at or above each span
        for sid, (_, layer, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
            owner[sid] = layer if layer else (owner[parent] if parent >= 0 else None)

        out = {name: 0.0 for name in PER_LAYER}
        attributed = dict.fromkeys(LAYERS, 0.0)
        total = 0.0
        eig_max_n = 0
        for sid, (name, layer, start, end, parent, _, info) in enumerate(spans):
            dur = end - start
            self_time = dur - child[sid]
            if parent < 0:
                total += dur
            if owner[sid]:
                attributed[owner[sid]] += self_time
            if layer:
                out[f"{layer}.self_s"] += self_time
                out[f"{layer}.calls"] += 1
            out["trace.spans"] += 1
            if name == "cli.serialize":
                out["cli.report_bytes"] += info or 0
            elif name == "algebra.multiply":
                out["algebra.multiply_calls"] += 1
            elif name in ("dolbeault.cohomology_dims", "dolbeault.index"):
                out["dolbeault.box_modes"] += info or 0
            elif name == "ktheory.certificate":
                out["ktheory.certificates"] += 1
                out["ktheory.certified_frac"] += bool(info)
            elif name == "numpy.eigvalsh" and owner[sid] == "dolbeault":
                batch, n = info or (0, 0)
                out["dolbeault.eigvalsh_calls"] += 1
                out["dolbeault.eigvalsh_mats"] += batch
                out["dolbeault.eigvalsh_flops"] += batch * n ** 3
                out["dolbeault.eigvalsh_s"] += dur
                eig_max_n = max(eig_max_n, n)
            elif name == "scipy.eig_banded" and owner[sid] == "heisenberg1d":
                out["heisenberg1d.eig_banded_calls"] += 1
        for metric, span in _TIMES.items():
            out[metric] = sum(s[3] - s[2] for s in spans if s[0] == span)

        if out["ktheory.certificates"]:
            out["ktheory.certified_frac"] /= out["ktheory.certificates"]
        spectral_s = out["dolbeault.cohomology_dims_s"] + out["dolbeault.index_s"]
        out["dolbeault.modes_per_s"] = out["dolbeault.box_modes"] / spectral_s if spectral_s else 0.0
        for layer in LAYERS:
            out[f"{layer}.share"] = attributed[layer] / total if total else 0.0
        keep = {"ktheory.certified_frac", "dolbeault.modes_per_s"} | {
            f"{layer}.share" for layer in LAYERS}
        for name in out:
            if name not in keep:
                out[name] /= passes
        out["dolbeault.eigvalsh_max_n"] = eig_max_n
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: max(value, FLOOR) for name, value in out.items()}
