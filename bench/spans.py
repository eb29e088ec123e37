"""In-memory span tracing of illumest, done from outside the package.

The benchmark does not change `src/`. Instead it replaces public functions at
the attribute their caller resolves (a module global such as
`illumest.evaluation.classify`, or a class attribute such as
`Projection.apply_rows`) with a wrapper that records one span per call, and
puts the originals back afterwards. Spans stay in memory as
(name, start, end, parent, count) records and are written out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    count: int  # rows handled, or 1 when the layer has no row count


def _rows(arg_index: int) -> Callable:
    return lambda *args, **kwargs: len(args[arg_index])


def _model_stats(models: list) -> Callable:
    def record(model) -> None:
        cells = 0
        nbytes = 0
        for grid in model.grids:
            for arr in (grid.dense, grid.cells, grid.cell_probs):
                if arr is not None:
                    nbytes += arr.nbytes
            cells += grid.dense.size if grid.dense is not None else grid.cells.size
        models.append((cells, nbytes))

    return record


#: Traced layers: span name -> attribute sites "module:attr" (or
#: "module:Class.attr") where callers resolve the function, and which
#: positional argument holds the rows it handles. Every site must be listed:
#: a module that did `from .x import f` calls through its own global `f`.
SPAN_SITES = {
    "io.read_scube": (("illumest.io:read_scube", "illumest.evaluation:read_scube"), None),
    "cbc.write_model": (("illumest.cbc:write_model",), None),
    "cbc.read_model": (("illumest.cbc:read_model",), None),
    "spectral.downsample": (
        ("illumest.spectral:downsample", "illumest.evaluation:downsample"),
        None,
    ),
    "spectral.relight": (
        ("illumest.spectral:relight", "illumest.evaluation:relight"),
        None,
    ),
    "spectral.add_noise": (("illumest.evaluation:add_noise",), None),
    "illuminants.select_projection_set": (
        (
            "illumest.illuminants:select_projection_set",
            "illumest.evaluation:select_projection_set",
        ),
        None,
    ),
    "linalg.nnls": (("illumest.linalg:nnls", "illumest.projections:nnls"), None),
    "linalg.nnls_rows": (
        ("illumest.linalg:nnls_rows", "illumest.projections:nnls_rows"),
        1,
    ),
    "projections.apply_rows": (("illumest.projections:Projection.apply_rows",), 1),
    "cbc.pixel_features": (("illumest.cbc:pixel_features",), 1),
    "cbc.bin_indices": (("illumest.cbc:bin_indices",), None),
    "cbc.score": (("illumest.cbc:score",), None),
    "cbc.classify": (("illumest.cbc:classify", "illumest.evaluation:classify"), None),
    "cbc.calibrate_bounds": (
        ("illumest.cbc:calibrate_bounds", "illumest.evaluation:calibrate_bounds"),
        None,
    ),
    "cbc.build_model": (
        ("illumest.cbc:build_model", "illumest.evaluation:build_model"),
        None,
    ),
    "baselines.spectral_gray_world": (
        ("illumest.evaluation:spectral_gray_world",),
        None,
    ),
    "evaluation.run": (
        ("illumest.evaluation:run_grid", "illumest.evaluation:run_noise"),
        None,
    ),
}
FIT_KINDS = ("rgb", "rand", "pca", "ill_pca", "nnmf", "lda")
for _kind in FIT_KINDS:
    SPAN_SITES[f"projections.fit_{_kind}"] = (
        (f"illumest.projections:fit_{_kind}", f"illumest.evaluation:fit_{_kind}"),
        None,
    )

#: Layers that are only counted: a span per call would move their time out
#: of the caller's self time, which is where the profile puts it.
COUNT_SITES = {"cbc.HistogramGrid.prob_at": ("illumest.cbc:HistogramGrid.prob_at",)}

#: Layers whose returned models are measured (cells and bytes held).
MODEL_LAYERS = ("cbc.build_model", "cbc.read_model")


def resolve(site: str):
    """(owner object, attribute name) for a "module:attr" or "module:Class.attr" site."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Patches:
    """Attribute replacements that can all be undone, and checked undone."""

    def __init__(self) -> None:
        self._saved: list = []

    def replace(self, site: str, make_wrapper: Callable) -> None:
        owner, attr = resolve(site)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def all_restored(self) -> bool:
        return all(owner.__dict__[attr] is orig for owner, attr, orig in self._saved)


class Tracer:
    """Records spans, call counters and model sizes while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.models: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self.patches = Patches()

    def _span_wrapper(
        self, name: str, row_arg: Optional[int], on_result: Optional[Callable]
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _rows(row_arg) if row_arg is not None else None

        def wrap(fn):
            def traced(*args, **kwargs):
                n = count(*args, **kwargs) if count else 1
                span = Span(name, clock(), 0.0, stack[-1] if stack else -1, n)
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        return wrap

    def _count_wrapper(self, name: str) -> Callable:
        counters = self.counters

        def wrap(fn):
            def counted(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)

            return counted

        return wrap

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        record = _model_stats(self.models)
        try:
            for name, (sites, row_arg) in SPAN_SITES.items():
                hook = record if name in MODEL_LAYERS else None
                for site in sites:
                    self.patches.replace(site, self._span_wrapper(name, row_arg, hook))
            for name, sites in COUNT_SITES.items():
                for site in sites:
                    self.patches.replace(site, self._count_wrapper(name))
            yield self
        finally:
            self.patches.restore()

    def write(self, path: Path) -> None:
        lines = ["name,start,end,parent,count"]
        lines.extend(
            f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.count}" for s in self.spans
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start  # children cover [span.start, reach) so far
        for k in sorted(kids, key=lambda k: spans[k].start):
            start = max(spans[k].start, reach)
            end = min(spans[k].end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals: self seconds, calls and rows per span name, and more."""
    spans = tracer.spans
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] += own
        calls[span.name] += 1
        rows[span.name] += span.count
    fallback = sum(
        1
        for s in spans
        if s.name == "linalg.nnls"
        and s.parent >= 0
        and spans[s.parent].name == "linalg.nnls_rows"
    )
    nnls_rows = rows["linalg.nnls_rows"]
    cells, nbytes = max(tracer.models, default=(0, 0))
    return {
        "io.read_scube.s": self_s["io.read_scube"],
        "cbc.write_model.s": self_s["cbc.write_model"],
        "cbc.read_model.s": self_s["cbc.read_model"],
        "spectral.downsample.s": self_s["spectral.downsample"],
        "spectral.relight.s": self_s["spectral.relight"],
        "spectral.relight.calls": calls["spectral.relight"],
        "spectral.add_noise.s": self_s["spectral.add_noise"],
        "spectral.add_noise.calls": calls["spectral.add_noise"],
        "illuminants.select_projection_set.s": self_s["illuminants.select_projection_set"],
        "linalg.nnls.s": self_s["linalg.nnls"],
        "linalg.nnls.calls": calls["linalg.nnls"],
        "linalg.nnls_rows.s": self_s["linalg.nnls_rows"],
        "linalg.nnls_rows.rows": nnls_rows,
        # 1 when no rows were attempted: no row needed the scalar fallback.
        "linalg.nnls_fast_frac": 1.0 - fallback / nnls_rows if nnls_rows else 1.0,
        "projections.fit.s": sum(self_s[f"projections.fit_{k}"] for k in FIT_KINDS),
        **{f"projections.fit_{k}.s": self_s[f"projections.fit_{k}"] for k in FIT_KINDS},
        "projections.apply_rows.s": self_s["projections.apply_rows"],
        "projections.apply_rows.rows": rows["projections.apply_rows"],
        "cbc.pixel_features.s": self_s["cbc.pixel_features"],
        "cbc.pixel_features.rows": rows["cbc.pixel_features"],
        "cbc.bin_indices.s": self_s["cbc.bin_indices"],
        "cbc.score.s": self_s["cbc.score"],
        "cbc.score.calls": calls["cbc.score"],
        "cbc.HistogramGrid.prob_at.calls": tracer.counters["cbc.HistogramGrid.prob_at"],
        "cbc.calibrate_bounds.s": self_s["cbc.calibrate_bounds"],
        "cbc.build_model.s": self_s["cbc.build_model"],
        "cbc.build_model.calls": calls["cbc.build_model"],
        "cbc.model_cells": cells,
        "cbc.model_bytes": nbytes,
        "evaluation.run.self_s": self_s["evaluation.run"],
        "baselines.spectral_gray_world.s": self_s["baselines.spectral_gray_world"],
    }
