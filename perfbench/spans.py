"""Spans around symcap's public entry points, recorded from the benchmark side.

Tracer.installed() replaces the entry points below by wrappers for the
duration of a `with` block and restores them after.  Each call becomes a
span (name, parent, item, work, start, end); spans stay in memory and are
written out once the run ends.  A layer's self time is its spans' duration
minus the part covered by their child spans.
"""

import gzip
from contextlib import contextmanager

from workloads import bd, bn, ehz, ob

# (owner, attribute, span name); a span's layer is its name's first part.
# Functions are wrapped where callers look them up, so calls from inside the
# package are traced too.
ENTRY_POINTS = [
    (ehz, "ehz_capacity", "ehz.ehz_capacity"),
    (ob, "min_action_scan", "orbits.min_action_scan"),
    (ob, "find_closed_alternating_orbits", "orbits.find_closed_alternating_orbits"),
    (ob, "integrate_orbit", "orbits.integrate_orbit"),
    (ob, "block_map", "orbits.block_map"),
    (ob, "glide_orbit", "orbits.glide_orbit"),
    (bn, "solve_embedding", "bounds.solve_embedding"),
    (bn, "linear_search", "bounds.linear_search"),
    (bn, "area_feasibility", "bounds.area_feasibility"),
    (bn, "area_exact_Sh", "bounds.area_exact_Sh"),
    (bd, "largest_ball_in_cylinder", "bodies.largest_ball_in_cylinder"),
    # symcore functions as the bounds module sees them
    (bn, "matrix_S", "symcore.matrix_S"),
    (bn, "random_symplectic_matrix", "symcore.random_symplectic_matrix"),
]
SUPPORT = "bodies.support_batch"
ITEM = "bench.item"
NAME, PARENT, ITEM_ID, WORK, START, END = range(6)


def _support_classes():
    return [cls for cls in vars(bd).values()
            if isinstance(cls, type) and issubclass(cls, bd.ConvexBody)
            and "support_batch" in cls.__dict__]


class Tracer:
    """In-memory span store for one traced pass.

    A span's work is a count of the unit its layer processes: rows for
    support_batch, arcs for integrate_orbit, samples for linear_search.
    Spans are timed by `now`, the run's program clock.
    """

    def __init__(self, now):
        self._now = now
        self.names = [ITEM, SUPPORT] + [name for _, _, name in ENTRY_POINTS]
        self._id = {n: i for i, n in enumerate(self.names)}
        self.rows = []
        self.closed_orbits = 0
        self.restarts = 0
        self.restarts_at_best = 0
        self._stack = []
        self._item = -1
        self._observers = {SUPPORT: self._rows_seen,
                           "orbits.integrate_orbit": self._orbit_seen,
                           "bounds.linear_search": self._search_seen,
                           "ehz.ehz_capacity": self._capacity_seen}

    @contextmanager
    def item_span(self, item_id: int):
        """Root span of one item; every span opened inside carries item_id."""
        self._item = item_id
        row = [self._id[ITEM], -1, item_id, 0, 0.0, 0.0]
        self._stack.append(len(self.rows))
        self.rows.append(row)
        row[START] = self._now()
        try:
            yield
        finally:
            row[END] = self._now()
            self._stack.pop()

    def _wrap(self, fn, name):
        nid, observe = self._id[name], self._observers.get(name)
        rows, stack, now = self.rows, self._stack, self._now

        # no context manager here: one per call would double the cost of
        # wrapping the microsecond-scale entry points
        def traced(*args, **kwargs):
            row = [nid, stack[-1] if stack else -1, self._item, 0, 0.0, 0.0]
            stack.append(len(rows))
            rows.append(row)
            row[START] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[END] = now()
                stack.pop()
            if observe is not None:
                observe(row, args, out)
            return out
        return traced

    def _rows_seen(self, row, args, out):
        row[WORK] = len(args[1])

    def _orbit_seen(self, row, args, out):
        row[WORK] = len(out.arcs)
        self.closed_orbits += bool(out.closed)

    def _search_seen(self, row, args, out):
        row[WORK] = int(out["budget"])

    def _capacity_seen(self, row, args, out):
        best = min(out.history)
        self.restarts += len(out.history)
        self.restarts_at_best += sum(h <= best + 1e-6 * abs(best) for h in out.history)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for cls in _support_classes():
                fn = cls.__dict__["support_batch"]
                saved.append((cls, "support_batch", fn))
                setattr(cls, "support_batch", self._wrap(fn, SUPPORT))
            for owner, attr, name in ENTRY_POINTS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self, scale: float = 1.0) -> dict:
        """Per-name totals (calls, inclusive and self seconds, work) and, per
        "parent>child" pair of names, the calls and inclusive seconds of
        spans directly under such a parent; seconds are multiplied by scale."""
        calls, incl, child, work = {}, {}, {}, {}
        nested_calls, nested_s = {}, {}
        for row in self.rows:
            name = self.names[row[NAME]]
            d = (row[END] - row[START]) * scale
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + d
            work[name] = work.get(name, 0) + row[WORK]
            if row[PARENT] >= 0:
                par = self.names[self.rows[row[PARENT]][NAME]]
                child[par] = child.get(par, 0.0) + d
                pair = par + ">" + name
                nested_calls[pair] = nested_calls.get(pair, 0) + 1
                nested_s[pair] = nested_s.get(pair, 0.0) + d
        return {"calls": calls, "incl_s": incl, "work": work,
                "self_s": {n: incl[n] - child.get(n, 0.0) for n in incl},
                "nested_calls": nested_calls, "nested_s": nested_s}


def write_spans(path, tracers) -> None:
    """One CSV row per span; tracer k holds the spans of traced pass k."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass,span,name,parent,item,work,start,end\n")
        for k, tr in enumerate(tracers):
            for i, row in enumerate(tr.rows):
                fh.write("%d,%d,%s,%d,%d,%d,%.9f,%.9f\n" % (
                    k, i, tr.names[row[NAME]], row[PARENT], row[ITEM_ID], row[WORK],
                    row[START], row[END]))
