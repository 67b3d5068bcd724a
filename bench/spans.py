"""In-memory span tracer for the traced benchmark run.

The tracer wraps, from outside the library, the module attributes through
which one noonbell layer calls the next.  Every layer looks these names up at
call time, so replacing the attribute is enough to see each crossing.  A
wrapper passes its arguments and result through untouched and records one
span: name, start, end and parent.  Spans live in compact per-thread arrays
while the run lasts and are written out once, at the end.

Parents follow the call stack of the thread that opened the span.  A span
opened on a worker thread with nothing open on that thread (the optimizer's
thread pool runs the simplex polish) takes as parent the innermost span open
on the main thread, which is the call that started the pool.
"""

from __future__ import annotations

import importlib
import math
import threading
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The span name's first component is the
# layer that does the work behind the attribute: ``inequalities.q_joint`` is
# the correlators layer called by the evaluator, ``marginals.q_joint`` the
# same formula called by the marginal quadrature.
TARGETS = (
    ("noonbell.cli", "optimize", "optimizer.optimize"),
    ("noonbell.optimizer", "evaluate_functional", "inequalities.evaluate_functional"),
    ("noonbell.optimizer", "minimize", "optimizer.polish"),
    ("noonbell.inequalities", "q_joint", "correlators.q_joint"),
    ("noonbell.inequalities", "parity_corr", "correlators.parity_corr"),
    ("noonbell.inequalities", "q_single_a", "correlators.q_single_a"),
    ("noonbell.marginals", "density_grid", "marginals.density_grid"),
    ("noonbell.marginals", "q_joint", "marginals.q_joint"),
    ("noonbell.marginals", "wigner", "marginals.wigner"),
    ("noonbell.fock", "displacement_matrix", "fock.displacement_matrix"),
    ("noonbell.verify", "run_checks", "verify.run_checks"),
    ("noonbell.svgplot", "heatmap_svg", "svgplot.heatmap_svg"),
)

_THREAD_STRIDE = 1 << 40  # span id = thread buffer index * stride + position


def _amplitude_points(args) -> int:
    """Evaluation points of a correlator call (p, alpha[, beta]); 1 if scalar."""
    if type(args[1]) is complex:  # the simplex polish: python scalars
        return 1
    shapes = [np.shape(a) for a in args[1:] if hasattr(a, "shape")]
    return int(np.prod(np.broadcast_shapes(*shapes), dtype=np.int64))


def _settings_points(args) -> int:
    """Settings vectors in an evaluate_functional(functional, p, settings) call."""
    shape = np.shape(args[2]) if len(args) > 2 else ()
    return int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1


_POINTS = {
    "correlators": _amplitude_points,
    "marginals.q_joint": _amplitude_points,
    "marginals.wigner": _amplitude_points,
    "inequalities.evaluate_functional": _settings_points,
}


class _Buffer:
    """Spans opened on one thread, in opening order."""

    def __init__(self, index: int):
        self.base = index * _THREAD_STRIDE
        self.name = array("i")
        self.parent = array("q")
        self.points = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """Spans of one traced run, and the wrappers that record them."""

    def __init__(self):
        self.names: list[str] = []
        self.extra: dict[int, dict] = {}
        self.absent: list[str] = []
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._buffer()
        self._restore: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used by the benchmark around its own
        calls into a layer."""
        return self._wrapper(fn, name)(*args, **kwargs)

    def _wrapper(self, fn, name: str):
        nid = self._name_id(name)
        points_of = _POINTS.get(name) or _POINTS.get(name.split(".")[0]) or (lambda args: 0)
        after = {"optimizer.polish": self._after_polish, "optimizer.optimize": self._after_optimize}.get(name)
        local, main, new_buffer = self._local, self._main, self._buffer

        # Kept flat: this runs once per correlator call of the polish.
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main.stack[-1] if main.stack and buf is not main else -1)
            idx = len(buf.end)
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.points.append(points_of(args))
            buf.end.append(0.0)
            stack.append(buf.base + idx)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(buf.base + idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_polish(self, sid, args, result):
        self.extra[sid] = {
            "nfev": int(getattr(result, "nfev", 0)),
            "success": bool(getattr(result, "success", False)),
            "fun": float(getattr(result, "fun", np.nan)),
        }

    def _after_optimize(self, sid, args, result):
        direction = getattr(args[0], "violation_direction", None) if args else None
        best = getattr(result, "best_value", None)
        if direction is not None and best is not None:
            sign = 1.0 if direction == "above-upper" else -1.0
            self.extra[sid] = {"objective": -sign * float(best)}

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        self.absent = []
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as parallel arrays; ``id`` is what ``parent`` refers to."""
        cols = {k: [] for k in ("id", "name", "parent", "points", "start", "end", "thread")}
        for t, buf in enumerate(self._buffers):
            n = len(buf.start)
            cols["id"].append(buf.base + np.arange(n, dtype=np.int64))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["parent"].append(np.frombuffer(buf.parent, dtype=np.int64))
            cols["points"].append(np.frombuffer(buf.points, dtype=np.int64))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            cols["thread"].append(np.full(n, t, dtype=np.int32))
        return {k: np.concatenate(v) for k, v in cols.items()}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def union_length(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of the intervals [start_i, end_i]."""
    if len(start) == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    opens = np.ones(len(s), dtype=bool)
    opens[1:] = s[1:] > reach[:-1]
    first = np.flatnonzero(opens)
    return float(np.sum(np.maximum.reduceat(e, first) - s[first]))


def self_times(sp: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover."""
    dur = sp["end"] - sp["start"]
    out = dur.copy()
    has_parent = sp["parent"] >= 0
    if not np.any(has_parent):
        return out
    children = np.flatnonzero(has_parent)
    children = children[np.argsort(sp["parent"][children], kind="stable")]
    parents, first = np.unique(sp["parent"][children], return_index=True)
    # Ids ascend in buffer order, so a parent's row is found by bisection.
    rows = np.searchsorted(sp["id"], parents)
    for k, group in zip(rows, np.split(children, first[1:])):
        s = np.clip(sp["start"][group], sp["start"][k], sp["end"][k])
        e = np.clip(sp["end"][group], sp["start"][k], sp["end"][k])
        out[k] -= union_length(s, e)
    return out


LAYERS = ("cli", "optimizer", "inequalities", "correlators", "marginals", "fock", "verify", "svgplot")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts, busy and self times, and shares of the traced time.

    ``busy_s`` is the wall time during which some span of the layer was open
    on some thread (the union of its intervals), ``self_s`` the summed self
    time of its spans.  Shares divide by the wall time of the traced
    operations (the root spans), except ``share.self.*``, which divide each
    layer's self time by the self time of all spans, so that they sum to 1
    even when the optimizer's thread pool runs two polish spans at once.
    """
    sp = tracer.spans()
    start, end, points, parent = sp["start"], sp["end"], sp["points"], sp["parent"]
    selft = self_times(sp)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def named(*names):
        return np.isin(sp["name"], [ids[n] for n in names if n in ids])

    def in_layer(*layers):
        return named(*(n for n in tracer.names if n.split(".")[0] in layers))

    def union(mask):
        return union_length(start[mask], end[mask])

    total = float(np.sum(end[parent < 0] - start[parent < 0])) or math.nan
    corr, ev = in_layer("correlators"), named("inequalities.evaluate_functional")
    opt, pol = named("optimizer.optimize"), named("optimizer.polish")
    marg_corr = named("marginals.q_joint", "marginals.wigner")

    grid_s = polish_s = 0.0
    starts = converged = useful = nfev = 0
    for k in np.flatnonzero(opt):
        children = np.flatnonzero(pol & (parent == sp["id"][k]))
        if len(children) == 0:
            grid_s += end[k] - start[k]
            continue
        grid_s += start[children].min() - start[k]
        polish_s += end[children].max() - start[children].min()
        stats = [tracer.extra.get(int(sp["id"][c]), {}) for c in children]
        funs = [s.get("fun", math.nan) for s in stats]
        winner = tracer.extra.get(int(sp["id"][k]), {}).get("objective", np.nanmin(funs))
        starts += len(children)
        nfev += sum(s.get("nfev", 0) for s in stats)
        converged += sum(bool(s.get("success")) for s in stats)
        useful += sum(abs(f - winner) <= 1e-9 for f in funs)

    total_self = float(np.sum(selft)) or math.nan
    out = {
        "correlators.scalar_calls": (int(np.sum(corr & (points == 1))), "count"),
        "correlators.vector_points": (int(np.sum(points[corr & (points > 1)])), "count"),
        "correlators.busy_s": (union(corr), "s"),
        "inequalities.evaluate_functional.calls": (int(np.sum(ev)), "count"),
        "inequalities.evaluate_functional.points": (int(np.sum(points[ev])), "count"),
        "inequalities.evaluate_functional.self_s": (float(np.sum(selft[ev])), "s"),
        "optimizer.optimize.busy_s": (union(opt), "s"),
        "optimizer.grid_s": (float(grid_s), "s"),
        "optimizer.polish_s": (float(polish_s), "s"),
        "optimizer.self_s": (float(np.sum(selft[opt])), "s"),
        "optimizer.polish.self_s": (float(np.sum(selft[pol])), "s"),
        "optimizer.polish.starts": (starts, "count"),
        "optimizer.polish.nfev": (nfev, "count"),
        "optimizer.polish.nfev_per_start": (nfev / starts if starts else 0.0, "count"),
        "optimizer.polish.converged_frac": (converged / starts if starts else 0.0, "ratio"),
        "optimizer.polish.useful_frac": (useful / starts if starts else 0.0, "ratio"),
        "marginals.busy_s": (union(in_layer("marginals")), "s"),
        "marginals.correlator_points": (int(np.sum(points[marg_corr])), "count"),
        "fock.calls": (int(np.sum(named("fock.displacement_matrix"))), "count"),
        "fock.busy_s": (union(in_layer("fock")), "s"),
        "cli.self_s": (float(np.sum(selft[named("cli.main")])), "s"),
        "svgplot.heatmap_svg.busy_s": (union(named("svgplot.heatmap_svg")), "s"),
        "share.optimizer.polish": (polish_s / total, "ratio"),
        "share.evaluate_functional.vector": (union(ev & (points > 1)) / total, "ratio"),
        "share.marginals_fock": (union(in_layer("marginals", "fock")) / total, "ratio"),
    }
    for layer in LAYERS:
        out[f"share.self.{layer}"] = (float(np.sum(selft[in_layer(layer)])) / total_self, "ratio")
    return out
