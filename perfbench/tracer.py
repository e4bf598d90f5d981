"""Span tracer that measures qcong's layers from outside the package.

install() wraps every public function of the traced layer modules, and the
public and arithmetic methods of the classes they define, then rebinds each
wrapper at every place under qcong that names the original: module
namespaces (so `from ._kernel import convolve` copies are caught) and class
namespaces (so aliases such as `__rmul__ = __mul__` are caught).  uninstall()
puts every original back.  Nothing in qcong is edited.

A span is opened around each wrapped call; it knows its name, start time and
parent span, and on exit its duration is charged to its name.  Self time is
the duration minus the time covered by its child spans.  Spans are folded
into per-name totals as they close, so memory stays flat however many calls
a run makes; the per-check spans (`verify.<check_id>`) and the caller ->
callee edges are also kept, for the trace file.
"""

import functools
import sys
import time
import types
from collections import Counter

LAYERS = ("_kernel", "series", "products", "lambert", "partitions", "verify")

# dunder methods that do layer work, and the name their spans report under;
# other dunders (repr, eq, hash, dataclass-generated code) are not traced
_DUNDERS = {"__init__": "init", "__mul__": "mul", "__rmul__": "mul",
            "__add__": "addsub", "__sub__": "addsub", "__neg__": "neg",
            "__pow__": "pow"}

# classes whose methods all report under the class name
_GROUPED = {"PackedSeries"}


def _convolve(t, a, b, out_len, modulus=None):
    ring = "zz" if modulus is None else "mod"
    name = f"_kernel.convolve.{ring}"
    t.counts[name + ".out_coeffs"] += max(out_len, 0)
    t.out_len[ring, out_len] += 1
    return name


def _pack(t, coeffs, nbytes):
    t.counts["_kernel.pack.bytes"] += len(coeffs) * nbytes
    return "_kernel.pack"


def _unpack_signed(t, value, count, nbytes):
    t.counts["_kernel.unpack_signed.bytes"] += count * nbytes
    return "_kernel.unpack_signed"


def _uv_series_def(t, prec):
    if sys.modules["qcong.partitions"]._def_cache["prec"] >= prec:
        t.counts["partitions.uv_series_def.cache_hits"] += 1
    return "partitions.uv_series_def"


def _run_check(t, check_id, overrides=None):
    return f"verify.{check_id}"


# span name -> hook(tracer, *args, **kwargs) returning the span name; hooks
# also count the work a call carries (bytes, coefficients, cache hits)
_HOOKS = {
    "_kernel.convolve": _convolve,
    "_kernel.pack": _pack,
    "_kernel.unpack_signed": _unpack_signed,
    "partitions.uv_series_def": _uv_series_def,
    "verify.run_check": _run_check,
}


def _span_name(layer, owner, attr):
    if owner is None:
        return f"{layer}.{attr}"
    if owner in _GROUPED:
        return f"{layer}.{owner}"
    return f"{layer}.{owner}.{_DUNDERS.get(attr, attr)}"


def _function_of(obj):
    """The plain function behind a namespace entry, or None."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    return obj if isinstance(obj, types.FunctionType) else None


def _qcong_namespaces():
    """(owner, namespace dict) for every qcong module and class defined in
    one; these are the binding sites a wrapper must replace."""
    for modname, mod in sorted(sys.modules.items()):
        if modname != "qcong" and not modname.startswith("qcong."):
            continue
        yield mod, vars(mod)
        for obj in list(vars(mod).values()):
            if (isinstance(obj, type)
                    and getattr(obj, "__module__", "") == modname):
                yield obj, vars(obj)


def traced_functions():
    """{id(function): (function, span name)} for every traced function."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"qcong.{layer}"]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[id(obj)] = (obj, _span_name(layer, None, attr))
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for mattr, mobj in vars(obj).items():
                    fn = _function_of(mobj)
                    if (fn is None or fn.__code__.co_filename != mod.__file__
                            or (mattr.startswith("_")
                                and mattr not in _DUNDERS)):
                        continue
                    out[id(fn)] = (fn, _span_name(layer, obj.__name__, mattr))
    return out


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()    # outermost spans only, so recursion is not double counted
        self.counts = Counter()     # work counters, named <span>.<counter>
        self.out_len = Counter()    # convolve calls by (ring, out_len)
        self.edges = Counter()      # (parent span, child span) -> calls
        self.checks = []            # (name, start, end) of each verify.<check_id> span
        self._stack = []            # open spans: [name, start, child time]
        self._open = Counter()
        self._sites = []            # (owner, attr, original entry)
        self._originals = {}

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if hook is None else hook(self, *args, **kwargs)
            parent = stack[-1][0] if stack else None
            span = [span_name, 0.0, 0.0]
            stack.append(span)
            self._open[span_name] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - span[1]
                self.calls[span_name] += 1
                self.self_s[span_name] += duration - span[2]
                self._open[span_name] -= 1
                if not self._open[span_name]:
                    self.total_s[span_name] += duration
                if stack:
                    stack[-1][2] += duration
                self.edges[(parent, span_name)] += 1
                if hook is _run_check:
                    self.checks.append((span_name, span[1], end))

        traced.perfbench_original = fn
        return traced

    def install(self):
        """Wrap every traced function at every binding site."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        self._originals = traced_functions()
        wrappers = {key: self._wrap(fn, name)
                    for key, (fn, name) in self._originals.items()}
        for owner, ns in _qcong_namespaces():
            for attr, entry in list(ns.items()):
                fn = _function_of(entry)
                if fn is None or id(fn) not in wrappers:
                    continue
                new = wrappers[id(fn)]
                if isinstance(entry, (classmethod, staticmethod)):
                    new = type(entry)(new)
                setattr(owner, attr, new)
                self._sites.append((owner, attr, entry))
        return self

    def uninstall(self):
        for owner, attr, entry in reversed(self._sites):
            setattr(owner, attr, entry)
        self._sites = []

    def unwrapped_sites(self):
        """Binding sites that still hold an original traced function."""
        return sorted(f"{getattr(owner, '__name__', owner)}.{attr}"
                      for owner, ns in _qcong_namespaces()
                      for attr, entry in ns.items()
                      if id(_function_of(entry)) in self._originals)

    @staticmethod
    def leftover_wrappers():
        """Binding sites that still hold a wrapper (should be none once
        uninstalled)."""
        return sorted(f"{getattr(owner, '__name__', owner)}.{attr}"
                      for owner, ns in _qcong_namespaces()
                      for attr, entry in ns.items()
                      if hasattr(_function_of(entry), "perfbench_original"))

    def summary(self):
        names = sorted(set(self.calls) | set(self.total_s))
        return {
            "spans": {n: {"calls": self.calls[n], "self_s": self.self_s[n],
                          "total_s": self.total_s[n]} for n in names},
            "counts": dict(sorted(self.counts.items())),
            "out_len_histogram": {
                ring: [[n, k] for (r, n), k in sorted(self.out_len.items())
                       if r == ring] for ring in ("mod", "zz")},
            "edges": [[p, c, k] for (p, c), k in sorted(
                self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
            "checks": [[n, s, e] for n, s, e in self.checks],
        }
