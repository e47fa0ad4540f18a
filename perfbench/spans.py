"""Outside-in tracing of latent_ot's layer entry points.

A :class:`Tracer` replaces module and class attributes of the package with
timing wrappers for the length of one traced run and puts the originals back
afterwards; nothing under ``src/`` is edited.  Each call becomes a span
(name, start, end, parent, attributes).  Spans stay in memory and are written
out once the run ends.  :func:`layer_metrics` turns a span list into the
per-layer numbers the benchmark reports.

Entry points that a later version of the package deletes or renames are
reported as absent; the tracer never fails because one is missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

GUARD_SPAN = "trace.guards"
CELL_SPAN = "harness.cell"
CLI_SPAN = "harness.cli_run"


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent, "attrs": self.attrs}

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        return cls(data["name"], data["start"], data["end"], data["parent"], data["attrs"])


# ---------------------------------------------------------------------------
# Hooks: attributes read from a finished call.  They run inside a
# ``trace.guards`` span so their cost is not charged to the traced layer.
# ---------------------------------------------------------------------------


def _plan_guards(call: dict, result) -> dict:
    """Marginal residual, duality gap and convergence of a Sinkhorn result."""
    from latent_ot.ot_core import primal_value

    alpha, beta, cfg = call["alpha"], call["beta"], call["cfg"]
    plan = result.plan.entries
    residual = max(
        float(np.abs(plan.sum(axis=1) - alpha.weights).sum()),
        float(np.abs(plan.sum(axis=0) - beta.weights).sum()),
    )
    primal = primal_value(result.plan, call["cost"], alpha, beta, cfg.epsilon)
    return {
        "entries": int(plan.size),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "residual": residual,
        "tolerance": float(cfg.marginal_tolerance),
        "duality_gap": abs(primal - result.value) / max(abs(result.value), 1e-300),
    }


def _pinned_fraction(call: dict, result) -> dict:
    """Boxed-ascent potentials sitting on the box face, out of all potentials."""
    cfg = call["cfg"]
    potentials = result[1] if isinstance(result, tuple) else result.potentials
    both = np.abs(np.concatenate([potentials.f, potentials.g]))
    radius = cfg.epsilon * math.log(cfg.eta)
    pinned = int(np.count_nonzero(both >= radius * (1.0 - 1e-12))) if math.isfinite(radius) else 0
    return {"pinned": pinned, "potentials": int(both.size)}


def _draws(call: dict, result) -> dict:
    return {"draws": int(np.size(result))}


def _edges(call: dict, result) -> dict:
    return {"edges": int(result.edge_count)}


def _entries(call: dict, result) -> dict:
    return {"entries": int(np.size(result))}


def _cell_key(call: dict, result) -> dict:
    _config, total, seed = call["args"]
    return {"N": int(total), "seed": int(seed)}


@dataclass(frozen=True)
class Target:
    """One entry point: where it is defined, and the span name it gets.

    ``qualname`` is ``function`` or ``Class.method`` inside ``module``.  With
    ``internal`` the wrapper replaces the definition itself, so calls made
    from inside the package are traced too; otherwise only the references
    held by the harness modules are replaced, so the span covers what a cell
    asks of the layer and not the layer's own helper calls.
    """

    module: str
    qualname: str
    span: str
    hook: Callable[[dict, object], dict] | None = None
    internal: bool = False


TARGETS = (
    Target("latent_ot.rng", "Xoshiro256StarStar.uniforms", "rng.uniforms", _draws),
    Target("latent_ot.latent_models", "sample_latents", "latent_models.sample_latents"),
    Target("latent_ot.latent_models", "eps_graph", "latent_models.eps_graph", _edges),
    Target("latent_ot.latent_models", "sample_kernel_graph", "latent_models.sample_kernel_graph", _edges),
    Target("latent_ot.latent_models", "true_kernel_matrix", "latent_models.true_kernel_matrix", _entries),
    Target("latent_ot.latent_models", "pairwise_squared_distances", "latent_models.pairwise_squared_distances"),
    Target("latent_ot.latent_models", "Graph.to_dense", "latent_models.Graph.to_dense"),
    Target("latent_ot.cost_estimators", "hop_counts", "cost_estimators.hop_counts"),
    Target("latent_ot.cost_estimators", "geodesic_estimate", "cost_estimators.geodesic_estimate"),
    Target("latent_ot.cost_estimators", "cost_from_distances", "cost_estimators.cost_from_distances"),
    Target("latent_ot.cost_estimators", "Eigendecomposition.from_symmetric", "cost_estimators.eigendecomposition"),
    Target("latent_ot.cost_estimators", "usvt", "cost_estimators.usvt"),
    Target("latent_ot.cost_estimators", "usvt_from_eigen", "cost_estimators.usvt_from_eigen"),
    Target("latent_ot.cost_estimators", "usvt_cost_block", "cost_estimators.usvt_cost_block"),
    Target("latent_ot.cost_estimators", "fast_kernel_block", "cost_estimators.fast_kernel_block"),
    Target("latent_ot.ot_core", "sinkhorn", "ot_core.sinkhorn", _plan_guards, internal=True),
    Target("latent_ot.ot_core", "dual_ascent_boxed", "ot_core.dual_ascent_boxed", _pinned_fraction),
    Target("latent_ot.ot_core", "stability_report", "ot_core.stability_report"),
    Target("latent_ot.diagnostics", "discrepancy", "diagnostics.discrepancy"),
    Target("latent_ot.diagnostics", "operator_norm", "diagnostics.operator_norm", internal=True),
    Target("latent_ot.harness.experiments", "run_experiment", "harness.run_experiment"),
    Target("latent_ot.harness.experiments", "_run_cell", CELL_SPAN, _cell_key),
    Target("latent_ot.harness.results", "emit_csv", "harness.emit_csv"),
)

_HARNESS_PREFIX = "latent_ot.harness"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans for calls into the targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, target: Target):
        tracer = self
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rss_before = _maxrss_kb()
            index = tracer.open(target.span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            span = tracer.spans[index]
            span.attrs["rss_raise_kb"] = _maxrss_kb() - rss_before
            if target.hook is not None:
                guard = tracer.open(GUARD_SPAN)
                try:
                    call = signature.bind(*args, **kwargs).arguments
                    span.attrs.update(target.hook(call, result))
                except (AttributeError, TypeError, IndexError, KeyError, ValueError) as exc:
                    span.attrs["hook_error"] = f"{type(exc).__name__}: {exc}"
                finally:
                    tracer.close(guard)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _replace(self, holder, name: str, value) -> None:
        self._restore.append((holder, name, holder.__dict__[name]))
        setattr(holder, name, value)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.span)
                continue
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.absent.append(target.span)
                continue
            original = vars(owner)[attr]
            if owner_name:
                # A method: replace it on the class, keeping classmethods as such.
                if isinstance(original, classmethod):
                    self._replace(owner, attr, classmethod(self._wrap(original.__func__, target)))
                else:
                    self._replace(owner, attr, self._wrap(original, target))
                continue
            wrapped = self._wrap(original, target)
            holders = [
                mod
                for mod_name, mod in list(sys.modules.items())
                if mod_name.startswith(_HARNESS_PREFIX) and mod is not None and vars(mod).get(attr) is original
            ]
            if target.internal or not holders:
                holders.append(module)
            for holder in dict.fromkeys(holders):
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, name, wrapped)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other; the sum of their durations is the part of the
    parent's interval they cover.
    """
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return [max(value, 0.0) for value in out]


def enclosing(spans: list[Span], index: int, name: str) -> int:
    """Index of the nearest ancestor named ``name`` (or -1)."""
    parent = spans[index].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def solve_failures(spans: list[Span]) -> list[dict]:
    """Sinkhorn solves that did not converge or missed their marginal tolerance.

    Each entry names the cell whose solve it was, when the cell span exists.
    """
    failures = []
    for index, span in enumerate(spans):
        if span.name != "ot_core.sinkhorn" or "residual" not in span.attrs:
            continue
        attrs = span.attrs
        if attrs["converged"] and attrs["residual"] <= attrs["tolerance"]:
            continue
        cell = enclosing(spans, index, CELL_SPAN)
        cell_attrs = spans[cell].attrs if cell >= 0 else {}
        failures.append(
            {
                "cell": (cell_attrs.get("N"), cell_attrs.get("seed")),
                "batch": enclosing(spans, index, CLI_SPAN),
                "converged": attrs["converged"],
                "residual": attrs["residual"],
                "tolerance": attrs["tolerance"],
            }
        )
    return failures


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

ABSENT = "absent"

# name -> unit, in the order they are reported.
LAYER_METRICS = {
    "rng.uniforms.self_s": "s",
    "rng.uniforms.draws": "count",
    "rng.uniforms.ns_per_draw": "ns",
    "latent_models.sample_latents.self_s": "s",
    "latent_models.sample_kernel_graph.self_s": "s",
    "latent_models.sample_kernel_graph.maxrss_raise_mb": "MB",
    "latent_models.eps_graph.self_s": "s",
    "latent_models.eps_graph.maxrss_raise_mb": "MB",
    "latent_models.graph_edges": "count",
    "latent_models.pairwise_squared_distances.self_s": "s",
    "latent_models.true_kernel_matrix.self_s": "s",
    "latent_models.kernel_entries": "count",
    "latent_models.Graph.to_dense.self_s": "s",
    "latent_models.Graph.to_dense.calls": "count",
    "cost_estimators.hop_counts.self_s": "s",
    "cost_estimators.eigendecomposition.self_s": "s",
    "cost_estimators.usvt.self_s": "s",
    "cost_estimators.usvt.maxrss_raise_mb": "MB",
    "cost_estimators.fast_kernel_block.self_s": "s",
    "ot_core.sinkhorn.self_s": "s",
    "ot_core.sinkhorn.calls": "count",
    "ot_core.sinkhorn.iterations": "count",
    "ot_core.sinkhorn.ns_per_entry_sweep": "ns",
    "ot_core.sinkhorn.marginal_residual_max": "ratio",
    "ot_core.sinkhorn.duality_gap_max": "ratio",
    "ot_core.sinkhorn.unconverged": "count",
    "ot_core.dual_ascent_boxed.self_s": "s",
    "ot_core.dual_ascent_boxed.calls": "count",
    "ot_core.dual_ascent_boxed.pinned_fraction": "ratio",
    "ot_core.stability_report.self_s": "s",
    "diagnostics.discrepancy.self_s": "s",
    "diagnostics.operator_norm.self_s": "s",
    "harness.cell_s_p50": "s",
    "harness.self_s": "s",
    "harness.emit_csv.self_s": "s",
    "harness.block_entries": "count",
    "trace.overhead_ratio": "ratio",
    "trace.absent_entry_points": "count",
}


# Metrics whose name does not start with the span they are read from.
_ORIGINS = {
    "latent_models.graph_edges": ("latent_models.sample_kernel_graph", "latent_models.eps_graph"),
    "latent_models.kernel_entries": ("latent_models.true_kernel_matrix",),
    "harness.cell_s_p50": (CELL_SPAN,),
    "harness.self_s": (CELL_SPAN,),
}
# Metrics read from span timings alone, which a broken hook does not affect.
_TIMED_SUFFIXES = ("self_s", "calls", "maxrss_raise_mb", "cell_s_p50")


def layer_metrics(
    spans: list[Span], absent: list[str], cells: int, block_entries: int, overhead_ratio: float
) -> dict[str, float | str]:
    """Per-cell layer figures from one traced run of ``cells`` cells.

    Self times, call counts, draws, edges and iterations are per cell: the
    run's total divided by ``cells``.  ``_max`` figures are the largest over
    the run; ``unconverged`` is a run total.  A figure whose entry point was
    absent is the string ``"absent"``.
    """
    self_time = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)
    cell_spans = by_name.get(CELL_SPAN, [])

    def total_self(name: str) -> float:
        return sum(self_time[i] for i in by_name.get(name, ()))

    def per_cell_self(name: str) -> float:
        return total_self(name) / cells

    def attr_total(name: str, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def rss_raise_mb(name: str) -> float:
        return max((spans[i].attrs.get("rss_raise_kb", 0) for i in by_name.get(name, ())), default=0) / 1024.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sinkhorn = [spans[i].attrs for i in by_name.get("ot_core.sinkhorn", ())]
    boxed = [spans[i].attrs for i in by_name.get("ot_core.dual_ascent_boxed", ())]
    entry_sweeps = sum(a.get("iterations", 0) * a.get("entries", 0) for a in sinkhorn)
    graph_edges = attr_total("latent_models.sample_kernel_graph", "edges") + attr_total("latent_models.eps_graph", "edges")

    values: dict[str, float] = {
        "rng.uniforms.self_s": per_cell_self("rng.uniforms"),
        "rng.uniforms.draws": attr_total("rng.uniforms", "draws") / cells,
        "rng.uniforms.ns_per_draw": 1e9 * ratio(total_self("rng.uniforms"), attr_total("rng.uniforms", "draws")),
        "latent_models.sample_latents.self_s": per_cell_self("latent_models.sample_latents"),
        "latent_models.sample_kernel_graph.self_s": per_cell_self("latent_models.sample_kernel_graph"),
        "latent_models.sample_kernel_graph.maxrss_raise_mb": rss_raise_mb("latent_models.sample_kernel_graph"),
        "latent_models.eps_graph.self_s": per_cell_self("latent_models.eps_graph"),
        "latent_models.eps_graph.maxrss_raise_mb": rss_raise_mb("latent_models.eps_graph"),
        "latent_models.graph_edges": graph_edges / cells,
        "latent_models.pairwise_squared_distances.self_s": per_cell_self("latent_models.pairwise_squared_distances"),
        "latent_models.true_kernel_matrix.self_s": per_cell_self("latent_models.true_kernel_matrix"),
        "latent_models.kernel_entries": attr_total("latent_models.true_kernel_matrix", "entries") / cells,
        "latent_models.Graph.to_dense.self_s": per_cell_self("latent_models.Graph.to_dense"),
        "latent_models.Graph.to_dense.calls": len(by_name.get("latent_models.Graph.to_dense", ())) / cells,
        "cost_estimators.hop_counts.self_s": per_cell_self("cost_estimators.hop_counts"),
        "cost_estimators.eigendecomposition.self_s": per_cell_self("cost_estimators.eigendecomposition"),
        "cost_estimators.usvt.self_s": per_cell_self("cost_estimators.usvt"),
        "cost_estimators.usvt.maxrss_raise_mb": rss_raise_mb("cost_estimators.usvt"),
        "cost_estimators.fast_kernel_block.self_s": per_cell_self("cost_estimators.fast_kernel_block"),
        "ot_core.sinkhorn.self_s": per_cell_self("ot_core.sinkhorn"),
        "ot_core.sinkhorn.calls": len(sinkhorn) / cells,
        "ot_core.sinkhorn.iterations": sum(a.get("iterations", 0) for a in sinkhorn) / cells,
        "ot_core.sinkhorn.ns_per_entry_sweep": 1e9 * ratio(total_self("ot_core.sinkhorn"), entry_sweeps),
        "ot_core.sinkhorn.marginal_residual_max": max((a.get("residual", 0.0) for a in sinkhorn), default=0.0),
        "ot_core.sinkhorn.duality_gap_max": max((a.get("duality_gap", 0.0) for a in sinkhorn), default=0.0),
        "ot_core.sinkhorn.unconverged": sum(1 for a in sinkhorn if a.get("converged") is False),
        "ot_core.dual_ascent_boxed.self_s": per_cell_self("ot_core.dual_ascent_boxed"),
        "ot_core.dual_ascent_boxed.calls": len(boxed) / cells,
        "ot_core.dual_ascent_boxed.pinned_fraction": ratio(
            sum(a.get("pinned", 0) for a in boxed), sum(a.get("potentials", 0) for a in boxed)
        ),
        "ot_core.stability_report.self_s": per_cell_self("ot_core.stability_report"),
        "diagnostics.discrepancy.self_s": per_cell_self("diagnostics.discrepancy"),
        "diagnostics.operator_norm.self_s": per_cell_self("diagnostics.operator_norm"),
        "harness.cell_s_p50": statistics.median(spans[i].duration for i in cell_spans) if cell_spans else 0.0,
        "harness.self_s": per_cell_self(CELL_SPAN),
        "harness.emit_csv.self_s": per_cell_self("harness.emit_csv"),
        "harness.block_entries": float(block_entries),
        "trace.overhead_ratio": overhead_ratio,
        "trace.absent_entry_points": float(len(absent)),
    }

    # A metric is absent when every entry point it is read from is absent,
    # or when a hook could no longer read the attribute it is built from.
    broken = {span.name for span in spans if "hook_error" in span.attrs}
    out: dict[str, float | str] = {}
    for metric, value in values.items():
        origins = _ORIGINS.get(metric) or tuple(t.span for t in TARGETS if metric.startswith(t.span + "."))
        from_hook = not metric.endswith(_TIMED_SUFFIXES)
        if origins and (
            all(origin in absent for origin in origins)
            or (from_hook and any(origin in broken for origin in origins))
        ):
            out[metric] = ABSENT
        else:
            out[metric] = value
    return out
