"""Spans around origamikz's layer functions, patched in from outside the package.

Each listed function is replaced by a timing wrapper in every module
namespace that binds it (``from .origami import canonical_form`` copies the
binding into ``census`` and ``cli``), and the ``Perm``/``Origami``
constructors are wrapped on their classes.  Spans (name, start, end,
parent) are kept in flat arrays while the traced code runs and are
aggregated or written out afterwards; :meth:`Tracer.restore` puts every
original back.
"""

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "origamikz"

# (module, attribute) of each layer boundary; "Class.__init__" wraps a
# constructor.  The span and metric name is module.function (module.Class
# for constructors).
LAYERS = (
    ("census", "h2_origamis"),
    ("census", "orbit_partition"),
    ("origami", "Perm.__init__"),
    ("origami", "Origami.__init__"),
    ("origami", "is_primitive"),
    ("origami", "canonical_form"),
    ("origami", "act_letter"),
    ("origami", "orbit"),
    ("origami", "pull_back_point"),
    ("geometry", "decompose"),
    ("homology", "intersection_number"),
    ("homology", "basis_from_directions"),
    ("homology", "express_in_basis"),
    ("monodromy", "dehn_twist_action"),
    ("sl2", "index_in_sl2"),
    ("sl2", "contains_minus_identity"),
)

# layers whose distinct results are counted, for <name>.useful_ratio
DISTINCT_RESULTS = ("origami.canonical_form",)


def layer_name(module, attr):
    return "%s.%s" % (module, attr.split(".")[0])


LAYER_NAMES = tuple(layer_name(m, a) for m, a in LAYERS)


class Tracer:
    """Records nested spans for the layer functions of one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.distinct = {name: set() for name in DISTINCT_RESULTS}
        self._stack = [-1]
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        opened, closed = self._open, self._close
        results = self.distinct.get(name)

        if results is None:
            def wrapper(*args, **kwargs):
                idx = opened(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = opened(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    closed(idx)
                results.add(out)
                return out

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every layer in every loaded origamikz module that binds it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module, attr in LAYERS:
            home = sys.modules["%s.%s" % (PACKAGE, module)]
            name = layer_name(module, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def patched(self):
        """(owner, attribute, original) for every binding replaced."""
        return list(self._undo)

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def summary(self, roots):
        """Per-layer calls and self seconds, root times and derived ratios.

        ``roots`` names the root spans (``cli.<command>``) to report, each
        with its total seconds, zero if it never ran.

        Self time is a span's duration minus the durations of its direct
        children; the code under test is single-threaded, so children never
        overlap.
        """
        n = len(self.name_of)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            total_s[nid] += dur
        by_name = {
            name: (calls[i], self_s[i], total_s[i])
            for i, name in enumerate(self.names)
        }
        out = {}
        for name in LAYER_NAMES:
            c, s, _ = by_name.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = c
            out[name + ".self_s"] = s
        for name in DISTINCT_RESULTS:
            c = out[name + ".calls"]
            out[name + ".useful_ratio"] = len(self.distinct[name]) / c if c else 0.0
        for name in roots:
            out[name + ".s"] = by_name.get(name, (0, 0.0, 0.0))[2]
        out["cli.unattributed_s"] = sum(
            by_name[name][1] for name in roots if name in by_name
        )
        return out

    def write(self, path):
        """Write the spans as CSV: name, start and end (s), parent row (-1 at a root)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i in range(len(self.name_of)):
                fh.write("%s,%.9f,%.9f,%d\n" % (
                    self.names[self.name_of[i]], self.start[i] - t0,
                    self.end[i] - t0, self.parent[i],
                ))
