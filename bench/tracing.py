"""Per-layer tracing from outside the library.

`Tracer.install` replaces the layer-boundary functions of the eight modules
with wrappers, in the defining module and in every `hirzebruch` namespace
that imported them by name (so `existence.generic_prioritary_index`,
`reduction.moduli_nonempty`, `cli.existence.hn_generic` and the package
re-exports are all seen).  `uninstall` puts the originals back.

Layer functions get a span each: (name, start ns, end ns, parent span, op).
The hot lattice primitives only get call counters, and only where other
modules call them, since a timer per call would cost more than the call.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import random
import statistics
import sys
from collections import Counter
from fractions import Fraction as Q
from time import perf_counter_ns

import workloads
from workloads import SUBCOMMANDS

MODULES = ("existence", "prioritary", "dlp", "exceptional", "lattice", "kronecker", "reduction", "cli")

SPANNED = {
    "existence": ("hn_generic", "moduli_nonempty", "delta_estimate", "is_wall"),
    "prioritary": ("generic_prioritary_index",),
    "dlp": ("dlp_below_rank", "dlp_grid"),
    "exceptional": ("build_table", "stability_interval", "save_table", "load_table"),
    "kronecker": ("wall_crossing_epsilon", "delta_closed_form"),
    "reduction": ("reduce_decision",),
    "cli": ("main",) + tuple("cmd_" + sub for sub in SUBCOMMANDS),
}
COUNTED = {"lattice": ("hilbert_P", "euler_pair", "intersect", "mu", "ceil_frac", "floor_frac")}
MICRO = ("hilbert_P", "euler_pair", "reduced_hilbert_key")

HN_RANKS = range(1, 7)
MODULI_BANDS = (("r01-08", 1, 8), ("r09-12", 9, 12), ("r13-16", 13, 16))
BANDED = (["existence.hn_generic.r%d.total_s" % r for r in HN_RANKS]
          + ["existence.moduli_nonempty.%s.total_s" % band for band, _, _ in MODULI_BANDS]
          + ["exceptional.save_table.bytes", "exceptional.load_table.bytes"])


def _per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []

    def add(prefix, *stats):
        for stat in stats:
            unit = {"calls": "count", "bytes": "bytes", "nonempty_ratio": "ratio"}.get(stat, "s")
            out.append(("%s.%s" % (prefix, stat), unit))

    add("existence.hn_generic", "calls", "total_s", "self_s")
    for r in HN_RANKS:
        add("existence.hn_generic.r%d" % r, "total_s")
    add("existence.moduli_nonempty", "calls", "self_s")
    for band, _, _ in MODULI_BANDS:
        add("existence.moduli_nonempty." + band, "total_s")
    add("existence.delta_estimate", "calls", "self_s", "nonempty_ratio")
    add("existence.is_wall", "calls", "total_s")
    add("prioritary.generic_prioritary_index", "calls", "total_s")
    add("dlp.dlp_below_rank", "calls", "total_s", "self_s")
    add("dlp.dlp_grid", "calls", "total_s")
    add("exceptional.build_table", "calls", "total_s", "self_s")
    add("exceptional.stability_interval", "calls", "total_s")
    add("exceptional.save_table", "calls", "total_s", "bytes")
    add("exceptional.load_table", "calls", "total_s", "bytes")
    for fn in COUNTED["lattice"]:
        add("lattice." + fn, "calls")
    out += [("lattice.%s.ns_per_call" % fn, "ns") for fn in MICRO]
    add("kronecker.wall_crossing_epsilon", "calls", "total_s")
    add("kronecker.delta_closed_form", "total_s")
    add("reduction.reduce_decision", "calls", "total_s", "self_s")
    add("cli.main", "calls", "self_s")
    for sub in SUBCOMMANDS:
        add("cli.main." + sub, "total_s")
    out += [("%s.errors" % mod, "count") for mod in MODULES]
    out += [("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
    return out


PER_LAYER = _per_layer_names()


def _path_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# Extra data kept on a span, computed from the call's arguments and result.
TAGS = {
    "existence.hn_generic": lambda a, k, out: _arg(a, k, 0, "v").r,
    "existence.moduli_nonempty": lambda a, k, out: (_arg(a, k, 0, "v").r, out.verdict),
    "exceptional.save_table": lambda a, k, out: _path_size(_arg(a, k, 1, "path")),
    "exceptional.load_table": lambda a, k, out: _path_size(_arg(a, k, 0, "path")),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index, op, tag]
        self.stack = []
        self.op = -1
        self.counts = Counter()  # calls of counted functions
        self.errors = Counter()  # module -> exceptions escaping a wrapped call
        self._patched = []

    # -- wrappers -------------------------------------------------------

    def _span(self, module, fname, fn):
        name = "%s.%s" % (module, fname)
        tag = TAGS.get(name)
        spans, stack, errors = self.spans, self.stack, self.errors

        def wrapped(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if tag is not None:
                rec[5] = tag(args, kwargs, out)
            return out

        return functools.update_wrapper(wrapped, fn)

    def _counter(self, module, fname, fn):
        name = "%s.%s" % (module, fname)
        counts, errors = self.counts, self.errors

        def wrapped(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise

        return functools.update_wrapper(wrapped, fn)

    def install(self):
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "hirzebruch" or name.startswith("hirzebruch.")]
        for kind, table in ((self._span, SPANNED), (self._counter, COUNTED)):
            for module, fnames in table.items():
                home = importlib.import_module("hirzebruch." + module)
                for fname in fnames:
                    orig = getattr(home, fname)
                    wrapper = kind(module, fname, orig)
                    for ns in namespaces:
                        if kind == self._counter and ns is home:
                            continue      # count calls from the other modules only
                        for attr, val in list(vars(ns).items()):
                            if val is orig:
                                setattr(ns, attr, wrapper)
                                self._patched.append((ns, attr, orig))

    def uninstall(self):
        while self._patched:
            ns, attr, orig = self._patched.pop()
            setattr(ns, attr, orig)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    # -- aggregation ----------------------------------------------------

    def metrics(self, overhead_ratio, ns_per_call, speed):
        """Per-layer values; times are multiplied by `speed` to bring them
        to reference speed (see workloads.CAL_REF_S)."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]

        def outermost(i):
            name, p = spans[i][0], spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return False
                p = spans[p][3]
            return True

        def under(i, name):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        calls, total, self_ns = Counter(), Counter(), Counter()
        band_ns = Counter()
        scanned = nonempty = 0
        for i, (name, t0, t1, _, _, tag) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            self_ns[name] += dur - child[i]
            if outermost(i):
                total[name] += dur
            if name == "existence.hn_generic" and tag in HN_RANKS:
                band_ns["existence.hn_generic.r%d.total_s" % tag] += dur
            elif name == "existence.moduli_nonempty" and tag is not None:
                for band, lo, hi in MODULI_BANDS:
                    if lo <= tag[0] <= hi:
                        band_ns["existence.moduli_nonempty.%s.total_s" % band] += dur
                if under(i, "existence.delta_estimate"):
                    scanned += 1
                    nonempty += tag[1] == "NONEMPTY"
            elif name in ("exceptional.save_table", "exceptional.load_table") and tag:
                band_ns[name + ".bytes"] += tag

        values = {}
        for metric, unit in PER_LAYER:
            prefix, stat = metric.rsplit(".", 1)
            if metric in BANDED:
                v = band_ns[metric] if unit == "bytes" else band_ns[metric] / 1e9 * speed
            elif stat == "errors":
                v = self.errors[prefix]
            elif prefix.startswith("lattice.") and stat == "calls":
                v = self.counts[prefix]
            elif stat == "ns_per_call":
                v = ns_per_call[prefix.split(".", 1)[1]]
            elif metric == "existence.delta_estimate.nonempty_ratio":
                v = nonempty / scanned if scanned else 0.0
            elif metric == "trace.overhead_ratio":
                v = overhead_ratio
            elif metric == "trace.spans":
                v = len(spans)
            else:
                if prefix.startswith("cli.main.") and prefix != "cli.main":
                    prefix = "cli.cmd_" + prefix.rsplit(".", 1)[1]
                v = {"calls": calls, "total_s": total, "self_s": self_ns}[stat][prefix]
                if stat != "calls":
                    v = v / 1e9 * speed
            values[metric] = v
        return values

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, t0, t1, parent, op, _ in self.spans:
                fh.write("%s,%d,%d,%d,%d\n" % (name, t0, t1, parent, op))


def lattice_ns_per_call(lib, repeats=5, batch=2000):
    """Nanoseconds per call of three lattice primitives on a fixed batch
    (seed 1907, independent of the run's seed), at reference speed, median
    of `repeats`."""
    rng = random.Random(1907)

    def rat():
        return Q(rng.randint(-30, 30), rng.randint(1, 12))

    def char():
        r = rng.randint(1, 20)
        return lib.ChernCharacter(r, lib.DivisorClass(rng.randint(-20, 20), rng.randint(-20, 20)), rat())

    slopes = [(lib.DivisorClass(rat(), rat()), rng.randint(0, 1)) for _ in range(batch)]
    pairs = [(char(), char(), rng.randint(0, 1)) for _ in range(batch)]
    keyed = [(char(), Q(rng.randint(1, 24), rng.randint(1, 8)), rng.randint(0, 1)) for _ in range(batch)]
    lat = lib.lattice
    cases = {
        "hilbert_P": (lambda: [lat.hilbert_P(nu, e) for nu, e in slopes]),
        "euler_pair": (lambda: [lat.euler_pair(v, w, e) for v, w, e in pairs]),
        "reduced_hilbert_key": (lambda: [lat.reduced_hilbert_key(v, m, e) for v, m, e in keyed]),
    }
    out = {}
    for name, run in cases.items():
        samples = []
        for _ in range(repeats):
            _, _, scaled_s = workloads.timed(run)
            samples.append(scaled_s * 1e9 / batch)
        out[name] = statistics.median(samples)
    return out
