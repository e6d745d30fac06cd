"""In-process tracer for the plap benchmark.

``Tracer.install()`` replaces every public function of every loaded ``plap``
module with a wrapper, in every module namespace (and module-level command
table) that binds it, so calls between modules are traced as well as calls
from the benchmark.  The scipy root finders that plap modules import
(``brentq``, ``minimize_scalar``) are wrapped per namespace under the names
``<module>.brent`` and ``<module>.golden``.  ``uninstall()`` restores the
original bindings, so untraced code runs with no wrapper at all.

Each wrapped call records a span (name, start, end, parent, op index) in
compact in-memory arrays and adds to per-name aggregates (calls, total time,
self time = span time minus the time of its child spans).  A few wrappers
also count work units from their arguments: abscissae evaluated, quadrature
nodes and levels, root-finder function evaluations and RK4 steps.  These
counts depend only on the inputs, so two traced runs of one seed give
identical counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

# private names that carry a per-layer metric; every other wrapped name is public
_EXTRA_NAMES = {"cli._find_descriptor"}
# third-party root finders bound in plap module namespaces
_FOREIGN = {"brentq": "brent", "minimize_scalar": "golden"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.op = -1  # op index stamped on new spans; -1 is set-up
        self._stack: list[list] = []  # open spans: [index, start, child_time, name]
        self._patches: list[tuple[dict, str, object]] = []
        self._error: BaseException | None = None
        self.error_span: str | None = None

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_name(self) -> str | None:
        return self._stack[-1][3] if self._stack else None

    def inside(self, name: str) -> bool:
        return any(frame[3] == name for frame in self._stack)

    def failing_span(self, exc: BaseException) -> str | None:
        """Innermost traced span that was open when ``exc`` was raised."""
        return self.error_span if exc is self._error else None

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return nid

    def _wrap(self, name: str, fn, hook):
        nid = self._name_id(name)
        agg = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            post = None
            if hook is not None:
                args, kwargs, post = hook(tracer, args, kwargs)
            idx = len(s_start)
            start = clock()
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tracer.op)
            s_start.append(start)
            s_end.append(start)
            frame = [idx, start, 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._error:
                    tracer._error, tracer.error_span = exc, name
                raise
            finally:
                end = clock()
                stack.pop()
                s_end[idx] = end
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
            if post is not None:
                post(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of ``package`` and its loaded submodules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        modules = [package] + [
            sys.modules[n] for n in sorted(sys.modules) if n.startswith(prefix)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in _EXTRA_NAMES:
                    continue
                wrappers[val] = self._wrap(name, val, HOOKS.get(name))
        for mod in modules:
            ns = vars(mod)
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in list(ns.items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(ns, attr, wrappers[val])
                elif attr in _FOREIGN and callable(val):
                    name = f"{short}.{_FOREIGN[attr]}"
                    self._patch(ns, attr, self._wrap(name, val, _count_fevals(name)))
                elif isinstance(val, dict):
                    for key, fn in list(val.items()):
                        if inspect.isfunction(fn) and fn in wrappers:
                            self._patch(val, key, wrappers[fn])

    def _patch(self, ns: dict, key: str, new) -> None:
        self._patches.append((ns, key, ns[key]))
        ns[key] = new

    def uninstall(self) -> None:
        while self._patches:
            ns, key, old = self._patches.pop()
            ns[key] = old

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates and counts so far, as plain JSON-ready data."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
        }

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def merge(self, snap: dict, spans: dict, op: int) -> None:
        """Fold a child process's snapshot and spans into this tracer; the
        child's root spans stay roots."""
        for name, (calls, total, self_s) in snap["stats"].items():
            self._name_id(name)
            agg = self.stats[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for key, value in snap["counts"].items():
            self.add(key, value)
        base = len(self.span_start)
        ids = np.array([self._name_id(n) for n in spans["names"]], dtype=np.int32)
        self.span_name.extend(ids[spans["name"]].tolist())
        self.span_parent.extend(np.where(spans["parent"] >= 0, spans["parent"] + base, -1).tolist())
        self.span_op.extend([op] * len(spans["start"]))
        self.span_start.extend(spans["start"].tolist())
        self.span_end.extend(spans["end"].tolist())


def save_spans(path, spans: dict, extra: str = "{}") -> None:
    """Write spans (and an ``extra`` JSON string) to a compressed .npz."""
    np.savez_compressed(
        path,
        names=np.array(json.dumps(spans["names"])),
        extra=np.array(extra),
        **{k: v for k, v in spans.items() if k != "names"},
    )


# -- argument hooks: work counts at layer boundaries ---------------------------
#
# A hook runs before the call and returns (args, kwargs, post): the arguments
# to call with (callables may be swapped for counting ones) and an optional
# callback that receives the result.


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_points(name: str):
    key = name + ".points"

    def hook(tr, args, kwargs):
        tr.add(key, np.size(_arg(args, kwargs, 1, "s")))
        return args, kwargs, None

    return hook


def _count_fevals(name: str):
    key = name + ".fevals"

    def hook(tr, args, kwargs):
        fun = args[0]  # every plap call site passes the objective positionally

        def counted(*a, **kw):
            tr.add(key, 1)
            return fun(*a, **kw)

        return (counted,) + tuple(args[1:]), kwargs, None

    return hook


def _tanh_sinh(tr, args, kwargs):
    psi = args[0]
    if tr.parent_name() == "quadrature.tanh_sinh_batch":
        tr.add("quadrature.tanh_sinh_batch.stragglers", 1)

    def counted(w):
        tr.add("quadrature.tanh_sinh.nodes", np.size(w))
        tr.add("quadrature.tanh_sinh.levels", 1)
        return psi(w)

    return (counted,) + tuple(args[1:]), kwargs, None


def _tanh_sinh_batch(tr, args, kwargs):
    psi_rows = args[0]
    tr.add("quadrature.tanh_sinh_batch.rows", np.size(_arg(args, kwargs, 1, "uppers")))

    def counted(w, idx):
        tr.add("quadrature.tanh_sinh_batch.nodes", np.size(w))
        return psi_rows(w, idx)

    return (counted,) + tuple(args[1:]), kwargs, None


def _theta_alpha_grids(tr, args, kwargs):
    tr.add("timemap.theta_alpha_grids.points", np.size(_arg(args, kwargs, 1, "r_grid")))
    return args, kwargs, None


def _shoot(tr, args, kwargs):
    tr.add("profile.shoot.steps", int(_arg(args, kwargs, 3, "n_steps")))
    return args, kwargs, None


def _solve_class(tr, args, kwargs):
    if tr.inside("cli._find_descriptor"):
        tr.add("cli.find_descriptor.classes_solved", 1)

    def post(result):
        tr.add("solver.solve_class.regular", sum(d.kind == "regular" for d in result))

    return args, kwargs, post


HOOKS = {
    "nonlinearity.eval_F": _count_points("nonlinearity.eval_F"),
    "nonlinearity.eval_m": _count_points("nonlinearity.eval_m"),
    "quadrature.tanh_sinh": _tanh_sinh,
    "quadrature.tanh_sinh_batch": _tanh_sinh_batch,
    "timemap.theta_alpha_grids": _theta_alpha_grids,
    "profile.shoot": _shoot,
    "solver.solve_class": _solve_class,
}
