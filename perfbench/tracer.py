"""Per-layer timing of monoweb from outside the program.

While a traced pass runs, the public layer functions of ``monoweb`` and the
``solve``/``residual``/``residual_grid``/``residual_vector`` hooks of every
concrete ``FiberSystem`` class are replaced by wrappers that record spans:
name, start, end, parent and whether the call raised.  A recursive function
opens a span only on its outermost call.  After the pass the wrappers are
removed and the spans are reduced to layer times and work counters.

A span belongs to one layer.  A layer's time is the sum of the self times of
its spans, where self time is a span's duration minus what its child spans
cover, so layer times never count the same interval twice.  Work that is
the same call in different roles is told apart by the span that caused it:
``solve`` under ``find_singularities`` is isolation probing, under
``track_loop`` it is loop tracking, under ``render_svg`` it is plotting.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
from array import array
from time import perf_counter

# Layer functions, by the module that defines them.  The per-node helpers
# (expression constructors, fiber distances) are left out: they are called
# per tree node or per root pair, so wrapping them would make the tracer
# cost more than the work it times.
FUNCTIONS = {
    "expr": ("parse", "diff", "compile_value", "compile_value_vec"),
    "fiber": ("solve_fiber", "find_singularities"),
    "monodromy": ("track_loop", "orbit_lift", "transport_fiber"),
    "index": ("index_report", "orbit_index", "winding_class"),
    "geometry": ("curvature_line_bde", "check_partition_of_unity",
                 "locate_on_patch", "integrate_gauss_curvature",
                 "verify_index_theorem"),
    "cli": ("load_problem", "run_analyze", "run_verify_theorem",
            "render_svg", "write_report"),
}
HOOKS = ("solve", "residual", "residual_grid", "residual_vector")

# span name -> layer; solve and residual depend on the span that caused them
LAYER = {
    "expr.parse": "expr.parse",
    "expr.diff": "expr.diff",
    "expr.compile_value": "expr.compile",
    "expr.compile_value_vec": "expr.compile",
    "fiber.residual_grid": "fiber.scan",
    "fiber.residual_vector": "fiber.refine",
    "fiber.find_singularities": "fiber.find_self",
    "monodromy.track_loop": "monodromy.track_self",
    "monodromy.transport_fiber": "monodromy.track_self",
    "monodromy.orbit_lift": "monodromy.lift",
    "index.index_report": "index.report_self",
    "index.orbit_index": "index.report_self",
    "index.winding_class": "index.report_self",
    "geometry.curvature_line_bde": "geometry.bde",
    "geometry.check_partition_of_unity": "geometry.partition",
    "geometry.locate_on_patch": "geometry.partition",
    "geometry.integrate_gauss_curvature": "geometry.quadrature",
    "geometry.verify_index_theorem": "geometry.theorem_self",
    "cli.load_problem": "cli.load",
    "cli.run_analyze": "cli.run_self",
    "cli.run_verify_theorem": "cli.run_self",
    "cli.render_svg": "cli.plot_self",
    "cli.write_report": "cli.report",
    "cli.write_svg": "cli.report",
}
CONTEXTS = ("fiber.residual_grid", "fiber.find_singularities",
            "monodromy.track_loop", "monodromy.transport_fiber",
            "cli.render_svg")
SOLVE_LAYER = {"fiber.find_singularities": "fiber.isolation",
               "monodromy.track_loop": "monodromy.solve",
               "monodromy.transport_fiber": "monodromy.solve",
               "cli.render_svg": "cli.plot_solve"}
# spans whose arguments or result feed a counter after the pass
KEEP_RESULT = ("expr.diff", "fiber.find_singularities",
               "monodromy.track_loop")
KEEP_ARGS = ("expr.compile_value", "expr.compile_value_vec",
             "fiber.residual_grid", "geometry.integrate_gauss_curvature")


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._undo = []
        self.missing = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.kept = {}
        self._stack = [-1]
        self._depth = [0] * len(self.names)

    def _name_id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self._depth.append(0)
        return self._ids[span]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.failed.append(1)
        self._stack.append(i)
        self._depth[nid] = 1
        self.start.append(perf_counter())
        return i

    def _close(self, i, ok):
        self.end[i] = perf_counter()
        self.failed[i] = not ok
        self._depth[self.name[i]] = 0
        self._stack.pop()

    def wrap(self, span, fn):
        nid = self._name_id(span)
        keep_result = span in KEEP_RESULT
        keep_args = span in KEEP_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._depth[nid]:
                return fn(*args, **kwargs)
            i = self._open(nid)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(i, ok)
            if keep_result:
                self.kept[i] = out
            elif keep_args:
                self.kept[i] = (args, kwargs)
            return out
        return traced

    @contextlib.contextmanager
    def span(self, span):
        """A span the benchmark opens itself."""
        i = self._open(self._name_id(span))
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(i, ok)

    # --- installing and removing the wrappers ----------------------------

    def install(self, pkg):
        """Wrap every layer function and hook; names that cannot be found
        are listed in ``missing``, and a run with any of them is not
        correct: its layers would silently read 0."""
        self.missing = []
        mods = _loaded_modules(pkg)
        for modname, fnames in FUNCTIONS.items():
            for fname in fnames:
                fn = _find(mods, modname, fname)
                if fn is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                wrapper = self.wrap(f"{modname}.{fname}", fn)
                # every namespace that binds the function, e.g.
                # find_singularities in fiber, geometry and cli
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, fn, True))
        base = _find(mods, "fiber", "FiberSystem")
        if base is None:
            self.missing.append("fiber.FiberSystem")
            return
        for cls in _subclasses(base):
            for hook in HOOKS:
                own = hook in vars(cls)
                fn = getattr(cls, hook)
                setattr(cls, hook, self.wrap(f"fiber.{hook}", fn))
                self._undo.append((cls, hook, fn, own))

    def remove(self):
        for obj, attr, fn, own in reversed(self._undo):
            if own:
                setattr(obj, attr, fn)
            else:
                delattr(obj, attr)
        self._undo = []

    # --- reduction --------------------------------------------------------

    def layers(self):
        """(layer self times, counters, inclusive times) of the spans
        recorded since the last reset."""
        n = len(self.start)
        names = self.names
        child = [0.0] * n
        ctx = [-1] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                ctx[i] = p if names[self.name[p]] in CONTEXTS else ctx[p]
        times = {}
        counts = {}
        incl = {}

        def bump(d, k, v):
            d[k] = d.get(k, 0) + v

        for i in range(n):
            span = names[self.name[i]]
            c = names[self.name[ctx[i]]] if ctx[i] >= 0 else None
            if span in ("fiber.solve", "fiber.solve_fiber"):
                layer = SOLVE_LAYER.get(c, "fiber.solve_other")
            elif span == "fiber.residual":
                layer = ("fiber.scan" if c == "fiber.residual_grid"
                         else "fiber.refine")
            else:
                layer = LAYER.get(span, span)
            dur = self.end[i] - self.start[i]
            bump(times, layer, dur - child[i])
            bump(incl, span, dur)
            bump(counts, span, 1)
            if span == "fiber.solve":
                bump(counts, layer + ".solves", 1)
                bump(counts, layer + ".failed", self.failed[i])
            elif span == "fiber.residual":
                bump(counts, layer + ".residuals", 1)
        counts.update(self._kept_counts())
        return times, counts, incl

    def _kept_counts(self):
        out = {"diff_out_nodes": 0, "compile_in_nodes": 0, "scan_points": 0,
               "points": 0, "track_solves": 0, "track_accepted": 0,
               "depth_max": 0, "quadrature_nodes": 0}
        sizes = {}
        for i, obj in self.kept.items():
            span = self.names[self.name[i]]
            if span == "expr.diff":
                out["diff_out_nodes"] += _distinct_nodes(obj)
            elif span.startswith("expr.compile"):
                out["compile_in_nodes"] += _tree_size(obj[0][0], sizes)
            elif span == "fiber.residual_grid":
                _, X, Y = obj[0]
                out["scan_points"] += len(X) * len(Y)
            elif span == "fiber.find_singularities":
                out["points"] += len(obj)
            elif span == "monodromy.track_loop":
                out["track_solves"] += obj.samples_solved
                out["track_accepted"] += len(obj.paths[0].ts)
                out["depth_max"] = max(out["depth_max"], obj.depth_reached)
            elif span == "geometry.integrate_gauss_curvature":
                out["quadrature_nodes"] += _quadrature_nodes(*obj)
        return out


def _loaded_modules(pkg):
    """``monoweb`` and every ``monoweb.*`` module loaded so far, by name,
    so that a function rebound in a module added later is still found."""
    prefix = pkg.__name__ + "."
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == pkg.__name__ or name.startswith(prefix))}


def _find(mods, modname, name):
    """``name`` from the module that owns the layer, else from any loaded
    ``monoweb`` module that defines it (a function moved to a new module)."""
    home = mods.get(f"monoweb.{modname}")
    obj = getattr(home, name, None)
    if obj is not None:
        return obj
    for mod in mods.values():
        obj = vars(mod).get(name)
        if obj is not None and getattr(obj, "__module__", None) == mod.__name__:
            return obj
    return None


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


_FIELDS = {}


def _children(node):
    names = _FIELDS.get(type(node))
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(node))
        _FIELDS[type(node)] = names
    for nm in names:
        v = getattr(node, nm)
        if isinstance(v, tuple):
            yield from (a for a in v if dataclasses.is_dataclass(a))
        elif dataclasses.is_dataclass(v):
            yield v


def _distinct_nodes(root):
    """Nodes of an expression, counted once per object."""
    seen = set()
    todo = [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(_children(node))
    return len(seen)


def _tree_size(root, sizes):
    """Nodes of an expression counted once per occurrence: what a tree
    walk such as code generation visits.  ``sizes`` memoizes by object."""
    todo = [(root, False)]
    while todo:
        node, ready = todo.pop()
        if id(node) in sizes:
            continue
        kids = list(_children(node))
        if ready or not kids:
            sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            todo.append((node, True))
            todo.extend((k, False) for k in kids)
    return sizes[id(root)]


def _quadrature_nodes(args, kwargs):
    """Computed from the orders and the patch count of an
    ``integrate_gauss_curvature`` call: the curvature integral runs at the
    requested order and at half of it (at least 4)."""
    order = kwargs.get("quadrature_order",
                       args[1] if len(args) > 1 else 32)
    lo = max(4, order // 2)
    return len(args[0]) * (order ** 2 + lo ** 2)
