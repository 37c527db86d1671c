"""Outside-in tracing of the package's layers.

The traced child replaces every module-level binding of each function
below with a wrapper, so calls that go through a name imported into
another module (``expand`` in cohomology, theta, substitution and cli)
or through a module's own globals (``pieri`` inside ``pieri_apply``)
are all seen.  The package itself is not edited.

Span wrappers record (name, start, end, parent) into arrays in memory;
they are written out when the run ends and self time is computed from
them afterwards.  Count wrappers only count: the ``formal`` helpers run
millions of times in ``verify``, and spans there would swamp the rest.
"""

import gc
import json
import sys
import time
import types
from array import array

import speed

PACKAGE = "isoschub"
SPAN, COUNT = "span", "count"

# (module, function, kind, reported metrics, modules that bind the
# function under the same name at the time the benchmark was written).
# Every listed binding must be wrapped or the traced run fails.
TARGETS = [
    ("cohomology", "pieri", SPAN, ("calls", "self_s", "distinct_frac"),
     ("cli", "cohomology", "substitution")),
    ("cohomology", "multiply", SPAN, ("calls", "self_s"),
     ("cli", "cohomology")),
    ("cohomology", "reduce_monomial", SPAN,
     ("calls", "self_s", "distinct_frac"), ("cohomology", "substitution")),
    ("cohomology", "giambelli", SPAN, ("self_s",), ("cli", "cohomology")),
    ("cohomology", "theta_route_product", SPAN, ("self_s",),
     ("cli", "cohomology")),
    ("cohomology", "verify_presentation", SPAN, ("self_s",),
     ("cli", "cohomology")),
    ("formal", "add_into", COUNT, ("calls",),
     ("cohomology", "formal", "polyeval", "raising", "substitution", "theta",
      "weyl")),
    ("formal", "combine", COUNT, ("calls",),
     ("cli", "cohomology", "formal", "polyeval", "substitution", "theta")),
    ("formal", "scaled", COUNT, ("calls",), ("cli", "cohomology", "formal")),
    ("polyeval", "p_mul", SPAN, ("calls", "self_s", "term_pairs"),
     ("cli", "polyeval")),
    ("polyeval", "p_det", SPAN, ("self_s",), ("cli", "polyeval")),
    ("polyeval", "evaluate", SPAN, ("self_s",), ("cli", "polyeval")),
    ("polyeval", "q_list", SPAN, ("self_s",), ("cli", "polyeval")),
    ("substitution", "build_forest", SPAN, ("calls", "self_s"),
     ("cli", "substitution")),
    ("substitution", "ev", SPAN, ("calls", "self_s", "distinct_frac"),
     ("substitution",)),
    ("substitution", "verify_claim1", SPAN, ("self_s",),
     ("cli", "substitution")),
    ("substitution", "verify_claim2", SPAN, ("self_s",),
     ("cli", "substitution")),
    ("substitution", "iota", SPAN, ("self_s",), ("substitution",)),
    ("substitution", "modified_forest", SPAN, ("self_s",),
     ("cli", "substitution")),
    ("theta", "theta", SPAN, ("calls", "self_s", "distinct_frac"),
     ("polyeval", "theta")),
    ("theta", "straighten", SPAN, ("self_s",), ("cli", "theta")),
    ("theta", "multiply", SPAN, ("self_s",), ("theta",)),
    ("theta", "to_theta_basis", SPAN, ("self_s",), ("cli", "theta")),
    ("theta", "theta_sum", SPAN, ("self_s",), ("theta",)),
    ("theta", "mixed_expand", SPAN, ("self_s",), ("cli", "theta")),
    ("theta", "skew_S", SPAN, ("calls", "self_s"), ("cli", "theta")),
    ("theta", "hat_theta", SPAN, ("self_s",), ("cli", "theta")),
    ("theta", "to_hat_basis", SPAN, ("self_s",), ("cli", "theta")),
    ("raising", "expand", SPAN, ("calls", "self_s", "distinct_frac"),
     ("cli", "cohomology", "raising", "substitution", "theta")),
    ("weyl", "reduced_words", SPAN, ("self_s",), ("weyl",)),
    ("weyl", "ktableaux", SPAN, ("calls", "self_s"), ("cli", "weyl")),
    ("weyl", "stanley_F", SPAN, ("self_s",), ("cli", "weyl")),
    ("weyl", "right_factors", SPAN, ("self_s",), ("weyl",)),
    ("weyl", "bh_expand", SPAN, ("self_s",), ("cli", "weyl")),
    ("partitions", "in_rect", COUNT, ("calls",),
     ("cli", "cohomology", "partitions", "weyl")),
    ("cli", "main", SPAN, ("self_s",), ("cli",)),
]

EXACT_KINDS = ("calls", "distinct_frac", "term_pairs")


def metric_names():
    """Per-layer metric names in report order, with their units."""
    units = {"calls": "count", "self_s": "s", "distinct_frac": "ratio",
             "term_pairs": "count"}
    out = [("%s.%s.%s" % (mod, fn, kind), units[kind])
           for mod, fn, _, kinds, _ in TARGETS for kind in kinds]
    return out + [("trace.overhead_frac", "ratio")]


class BindingError(RuntimeError):
    pass


class Tracer:
    """Wrappers, counters and the span log of one traced child."""

    def __init__(self):
        self.names = ["%s.%s" % (mod, fn) for mod, fn, *_ in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.keys = [set() if "distinct_frac" in t[3] else None
                     for t in TARGETS]
        self.term_pairs = 0
        self.starts = array("d")
        self.ends = array("d")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.stack = [-1]
        self.on = False
        self._originals = []
        self._wrappers = []

    # ------------------------------------------------------------ wrapping

    def _span_wrapper(self, fn, nid):
        calls, keys = self.calls, self.keys[nid]
        starts, ends = self.starts, self.ends
        names, parents, stack = self.span_name, self.span_parent, self.stack
        clock = time.perf_counter
        tracer = self
        weigh = "term_pairs" in TARGETS[nid][3]

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if keys is not None:
                keys.add(_arg_key(args, kwargs))
            if weigh:
                tracer.term_pairs += len(args[0]) * len(args[1])
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, nid):
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.on:
                calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every binding; raise BindingError if one is left over."""
        modules = {name[len(PACKAGE) + 1:]: mod
                   for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE + ".")}
        missing = []
        for nid, (home, fname, kind, _, expected) in enumerate(TARGETS):
            fn = getattr(modules.get(home), fname, None)
            if not isinstance(fn, types.FunctionType):
                missing.append("%s.%s is not a function" % (home, fname))
                continue
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            wrapper = make(fn, nid)
            wrapper.__name__ = fn.__name__
            wrapper.__qualname__ = fn.__qualname__
            wrapper.__module__ = fn.__module__
            wrapper.__doc__ = fn.__doc__
            bound = set()
            for modname, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        bound.add(modname)
            missing += ["%s.%s not bound in %s" % (home, fname, m)
                        for m in expected if m not in bound]
            self._originals.append(fn)
            self._wrappers.append(wrapper)
        missing += self._stray_references()
        if missing:
            raise BindingError("unwrapped bindings: " + "; ".join(missing))

    def _stray_references(self):
        # After wrapping, an original may only be held by its wrapper's
        # closure cell or by this tracer's own bookkeeping.
        allowed = {id(self._originals), id(self.__dict__)}
        for w in self._wrappers:
            allowed.update(id(c) for c in w.__closure__ or ())
        stray = []
        gc.collect()
        for fn in self._originals:
            for ref in gc.get_referrers(fn):
                if id(ref) in allowed or isinstance(ref, types.FrameType):
                    continue
                stray.append("%s.%s still held by a %s"
                             % (fn.__module__, fn.__name__,
                                type(ref).__name__))
        return stray

    # ------------------------------------------------------------ results

    def counters(self):
        """Exact counters: calls, distinct_frac and p_mul term pairs."""
        out = {}
        for nid, (mod, fname, _, kinds, _) in enumerate(TARGETS):
            base = "%s.%s." % (mod, fname)
            if "calls" in kinds:
                out[base + "calls"] = self.calls[nid]
            if "distinct_frac" in kinds:
                n = self.calls[nid]
                out[base + "distinct_frac"] = (
                    len(self.keys[nid]) / n if n else 0.0)
            if "term_pairs" in kinds:
                out[base + "term_pairs"] = self.term_pairs
        return out

    def write_spans(self, path, speed_state):
        """One JSON header line, then the four span arrays back to back.

        The header carries the speed samples taken during the run, so
        that span durations can be read in reference seconds.
        """
        header = {"names": self.names, "spans": len(self.starts),
                  "arrays": ["start:d", "end:d", "name:i", "parent:i"],
                  "speed": speed_state}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.starts, self.ends, self.span_name,
                        self.span_parent):
                arr.tofile(fh)


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def read_self_times(path):
    """Self time per traced function, in reference seconds (speed.py):
    span time not covered by child spans."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for code in ("d", "d", "i", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    starts, ends, names, parents = cols
    sampler = speed.SpeedSampler.from_state(header["speed"])
    dur = [sampler.ref_seconds(a, b) for a, b in zip(starts, ends)]
    covered = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += dur[i]
    self_s = dict.fromkeys(header["names"], 0.0)
    for i in range(n):
        self_s[header["names"][names[i]]] += dur[i] - covered[i]
    return self_s, n
