"""In-memory spans around the package's layer boundaries.

`Tracer.install()` wraps, from outside the package, every public function
each module defines or imports, the public methods of its classes, and the
few private functions that mark a sub-layer (the single-chain decision,
the sweep unit).  Each wrapped call records a span: name, bucket, parent,
start and end.  Spans stay in memory until `write()`.

A span's bucket is the sub-layer its self time is charged to.  A function
with its own bucket (for example `polytope.hull_contains` -> `polytope.lp`)
uses it; any other function inherits the bucket of a parent span in the
same layer, or else takes its layer's name.  Self time is a span's duration
minus the durations of its children; children of one span never overlap,
because the package runs one call at a time in the traced process.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager

# (layer, qualified name) -> bucket, where it is not the layer itself
BUCKETS = {
    ("polytope", "hull_contains"): "polytope.lp",
    ("polytope", "hull_vertices"): "polytope.hull",
    ("polytope", "is_snp"): "polytope.snp",
    ("polytope", "m_convex_failure"): "polytope.mconvex",
    ("polytope", "is_m_convex"): "polytope.mconvex",
    ("polytope", "GeneralizedPermutahedron.integer_points"): "polytope.gp_points",
    ("scnp", "ps_support"): "scnp.support_dp",
    ("scnp", "support_table_above"): "scnp.support_dp",
    ("scnp", "verify_ps_mconvex"): "driver",
    ("scnp", "verify_scnp_pattern"): "driver",
    ("scnp", "verify_theorems"): "driver",
    ("scnp", "ConjectureReport.to_json_dict"): "driver",
    ("scnp", "ConjectureReport.summary"): "driver",
    ("scnp", "ConjectureReport.ok"): "driver",
    ("scnp", "_run_unit"): "scnp",
    ("scnp", "_scnp_decide"): "scnp",
    ("scnp", "_scnp_search"): "scnp",
    ("scnp", "is_scnp"): "scnp",
}
PRIVATE = {"scnp": ("_run_unit", "_scnp_decide", "_scnp_search")}


def layer_of(bucket: str) -> str:
    return bucket.split(".", 1)[0]


class Tracer:
    """Records spans for wrapped calls; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.bucket_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int, layer: str, bucket_id: int | None) -> int:
        sid = len(self.start)
        parent = self.stack[-1] if self.stack else -1
        if bucket_id is None:
            bucket_id = self._id(layer)
            if parent >= 0:
                pb = self.bucket_of[parent]
                if layer_of(self.names[pb]) == layer:
                    bucket_id = pb
        self.name_of.append(name_id)
        self.bucket_of.append(bucket_id)
        self.parent.append(parent)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start[sid] = self.clock()
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()

    def wrap(self, fn, layer: str, qualname: str, observe=None):
        """A traced stand-in for fn; observe(args, result) may bump counters."""
        name_id = self._id(f"{layer}.{qualname}")
        fixed = BUCKETS.get((layer, qualname))
        bucket_id = None if fixed is None else self._id(fixed)
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumer time stays with the consumer
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    sid = self.open(name_id, layer, bucket_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(sid)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name_id, layer, bucket_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    # -- installing -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap the package's functions in place; `uninstall` puts them back."""
        originals: dict[int, tuple[str, str]] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if isinstance(obj, (types.FunctionType, type)) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (layer, name)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                home = originals.get(id(obj))
                if home is None:
                    continue
                owner_layer, qualname = home
                if isinstance(obj, type):
                    if owner_layer == layer:
                        self._wrap_methods(obj, layer)
                    continue
                if name.startswith("_") and name not in PRIVATE.get(owner_layer, ()):
                    continue
                observe = OBSERVERS.get(f"{owner_layer}.{qualname}")
                self._patch(mod, name, self.wrap(obj, owner_layer, qualname, observe))

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(self.wrap(raw.__func__, layer, qual)))
            elif isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(self.wrap(raw.__func__, layer, qual)))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, name, self.wrap(raw, layer, qual))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    @contextmanager
    def installed(self, modules: dict[str, types.ModuleType]):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[sid]
        return out

    def bucket_self(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for b, t in zip(self.bucket_of, self.self_times()):
            name = self.names[b]
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def calls(self, name: str) -> int:
        """Spans opened for one function (a generator counts each resumption)."""
        i = self.name_ids.get(name)
        return 0 if i is None else sum(1 for x in self.name_of if x == i)

    def entries(self, layer: str) -> int:
        """Calls into a layer from outside it."""
        def outer(sid):
            p = self.parent[sid]
            return p < 0 or layer_of(self.names[self.bucket_of[p]]) != layer
        return sum(
            1 for sid, b in enumerate(self.bucket_of)
            if layer_of(self.names[b]) == layer and outer(sid)
        )

    def write(self, path) -> None:
        """Tab-separated: id, parent, name, bucket, start, end (seconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tbucket\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[self.name_of[sid]]}\t"
                    f"{self.names[self.bucket_of[sid]]}\t{self.start[sid] - t0:.9f}\t"
                    f"{self.end[sid] - t0:.9f}\n"
                )


# -- counters read from arguments and results ------------------------------------


def _interval(counts, args, result):
    counts["bruhat.interval.elements"] += len(result)


def _mconvex(counts, args, result):
    counts["polytope.mconvex.points"] += len(args[0])


def _decide(counts, args, result):
    u, w = args[0], args[1]
    counts["scnp.chains_examined"] += result.chains_examined
    if u == w:
        counts["scnp.trivial"] += 1


OBSERVERS = {
    "bruhat.interval_elements": _interval,
    "polytope.m_convex_failure": _mconvex,
    "scnp._scnp_decide": _decide,
}
