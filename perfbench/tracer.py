"""Layer spans recorded from outside the program.

The package binds its entry points with ``from ... import``, so a call from
``motivic.cli`` into ``count_points`` goes through ``motivic.cli``'s own
name, not through ``motivic.count``.  ``Tracer.install`` therefore replaces
each binding the program calls through, and ``Tracer.restore`` puts the
originals back.  ``Tracer.check_coverage`` fails if a module of the package
holds an unpatched binding of a traced function outside the module that
defines it, which is how a new call path would otherwise escape the trace.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  Spans stay in memory until ``layer_totals``
folds them into per-layer calls and self times; a span's self time is its
duration minus the time its child spans cover.
"""

import functools
import sys
import time
import types

# count_points takes its direct modular path when q exceeds this.
TABLE_LIMIT = 1024

# (module, attribute, layer) for every binding the CLI path calls through.
# Attributes of the form "Class.method" are patched on the class.
BINDINGS = (
    ("motivic.cli", "run", "cli"),
    ("motivic.cli", "render_json", "cli.render"),
    ("motivic.cli", "parse_poly", "parse"),
    ("motivic.cli", "parse_point", "parse"),
    ("motivic.cli", "class_of_quadric", "strat"),
    ("motivic.cli", "class_of_arrangement", "strat"),
    ("motivic.cli", "class_of_cone", "strat"),
    ("motivic.cli", "class_of_singular_cubic", "strat"),
    ("motivic.cli", "class_of_two_quadric_union", "strat"),
    ("motivic.cli", "class_of_descended_arrangement", "descent"),
    ("motivic.cli", "count_points", "count"),
    ("motivic.kclass", "count_points", "count"),
    ("motivic.strat", "count_points", "count"),
    ("motivic.strat", "enumerate_points", "count.enumerate"),
    ("motivic.kclass", "Identity.sides", "kclass.identity"),
    ("motivic.kclass", "ClassExpr.count_measure", "kclass.oracle"),
)

LAYERS = ("cli", "cli.render", "parse", "strat", "descent", "kclass.identity",
          "kclass.oracle", "count", "count.bigprime", "count.enumerate")


class CoverageError(RuntimeError):
    """A traced function is reachable through a binding the tracer missed."""


def candidates(query):
    """Candidate tuples count_points walks: the points of the charted P^n."""
    q = query.spec.order
    chart = dict(query.chart)
    total = 0
    for lead in range(query.n + 1):
        if chart.get(lead) == "zero" or any(
                i < lead and kind == "nonzero" for i, kind in chart.items()):
            continue
        size = 1
        for i in range(lead + 1, query.n + 1):
            kind = chart.get(i)
            if kind != "zero":
                size *= q - 1 if kind == "nonzero" else q
        total += size
    return total


def _resolve(module, attr):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.queries = []
        self.enumerate_calls = 0
        self._stack = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _spanned(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(query, *args, **kwargs):
            self.queries.append(query)
            big = query.spec.order > TABLE_LIMIT
            self._open("count.bigprime" if big else "count")
            try:
                return fn(query, *args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _enumerated(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enumerate_calls += 1
            return self._segments(fn(*args, **kwargs))
        return wrapper

    def _segments(self, inner):
        # one span per resumption: the consumer's work between points
        # belongs to the consumer
        try:
            while True:
                self._open("count.enumerate")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close()
                yield item
        finally:
            inner.close()

    # -- patching ----------------------------------------------------------

    def install(self):
        for module, attr, layer in BINDINGS:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            if layer == "count":
                wrapped = self._counted(original)
            elif layer == "count.enumerate":
                wrapped = self._enumerated(original)
            else:
                wrapped = self._spanned(original, layer)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def check_coverage(self):
        """Raise CoverageError for any unpatched binding of a traced function.

        Call after install.  The module defining a function and the package
        root, which only re-exports, are exempt.
        """
        originals = {id(fn): fn for owner, _, fn in self._saved
                     if isinstance(owner, types.ModuleType)}
        missed = []
        for modname, mod in sorted(sys.modules.items()):
            if not modname.startswith("motivic."):
                continue
            for attr, value in vars(mod).items():
                fn = originals.get(id(value))
                if fn is not None and fn.__module__ != modname:
                    missed.append("%s.%s" % (modname, attr))
        if missed:
            raise CoverageError("untraced bindings: " + ", ".join(missed))

    # -- aggregation -------------------------------------------------------

    def layer_totals(self):
        """{layer: [calls, self seconds]} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for i, (name, start, end, parent) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += end - start - child[i]
        totals["count.enumerate"][0] = self.enumerate_calls
        return totals
