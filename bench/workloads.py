"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations (one *pass*),
runs a pass on request, and knows how to check, canonicalise and describe
the outputs of a pass.  The runner (run.py) owns repetition, aggregation
and reporting; this module times single operations and table builds, and
takes the calibration probes that bring those times to reference speed.

The library is handed in as `lib`, the freshly imported `hirzebruch`
package, and every library function is looked up through it when a pass
starts, so a tracer installed before the pass sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction as Q
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_TABLES = os.path.join(HERE, "golden_tables.jsonl")
GOLDEN_RANKS = {0: 19, 1: 20}


# The machine's speed drifts by tens of percent over seconds and minutes, so
# every reported time is scaled to reference speed: multiplied by CAL_REF_S
# over the calibration probes taken around it.  CAL_REF_S is the probe's
# fastest time on a 2-vCPU x86-64 VM with Python 3.11.7.
CAL_REF_S = 0.0063
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python Fraction kernel that uses no
    library code: a probe of how fast the machine runs right now."""
    t = perf_counter()
    s = Q(0)
    for i in range(1, 3000):
        s += Q(i % 13 + 1, i % 97 + 1)
    return perf_counter() - t


def probe() -> float:
    """The faster of two calibration runs."""
    return min(calibrate(), calibrate())


def scaled(seconds, probe_s):
    return seconds * CAL_REF_S / probe_s


def timed(step):
    """(result, seconds, scaled seconds) of one step, scaled by the mean of
    the probes taken right before and right after it."""
    before = probe()
    t = perf_counter()
    result = step()
    seconds = perf_counter() - t
    return result, seconds, scaled(seconds, (before + probe()) / 2)


class Pass:
    """Outputs of one pass: per-op outputs and latencies, the mean of the
    calibration probes around each op, the wall time of the op loop, and
    the from-scratch table builds as (seconds, scaled seconds)."""

    cache = None            # cli_session: cache writes and reads of the pass

    def __init__(self, n_ops=0):
        self.outputs = [None] * n_ops
        self.lat_ns = [0] * n_ops
        self.probe_s = [0.0] * n_ops
        self.wall_s = 0.0
        self.builds_s = []
        self.tables = None
        self._pending = []
        self._prev_probe = probe()
        self._last_probe = perf_counter()

    def record(self, i, output, lat_ns):
        """Store op i; about every CALIBRATE_EVERY_S a probe is taken and
        given to every op since the last one."""
        self.outputs[i] = output
        self.lat_ns[i] = lat_ns
        self._pending.append(i)
        if perf_counter() - self._last_probe >= CALIBRATE_EVERY_S:
            self.flush_probe()

    def flush_probe(self):
        if self._pending:
            p = probe()
            for i in self._pending:
                self.probe_s[i] = (self._prev_probe + p) / 2
            self._pending.clear()
            self._prev_probe = p
        self._last_probe = perf_counter()


def _timed_ops(ops, call, out, start, tracer):
    """Run call(op) for each op, storing it as op start, start + 1, ...; an
    op that raises yields an ("error", ...) output instead of stopping the
    pass.  Spans get a running op number."""
    t0 = perf_counter()
    for i, op in enumerate(ops, start):
        if tracer is not None:
            tracer.op += 1
        t = perf_counter_ns()
        try:
            res = call(op)
        except Exception as err:  # counted as a failed op by the checks
            res = ("error", "%s: %s" % (type(err).__name__, err))
        out.record(i, res, perf_counter_ns() - t)
    out.flush_probe()
    out.wall_s += perf_counter() - t0


def is_error(output) -> bool:
    return isinstance(output, tuple) and len(output) == 2 and output[0] == "error"


def q(x) -> str | None:
    return None if x is None else str(x)


def golden_rows(e, max_rank):
    with open(GOLDEN_TABLES) as fh:
        rows = [ln.rstrip("\n") for ln in fh if ln.strip()]
    return [ln for ln in rows if (row := json.loads(ln))["e"] == e and row["r"] <= max_rank]


def table_rows(lib, table, max_rank=None):
    to_json = lib.exceptional.record_to_json
    return [to_json(rec, table.e) for rec in table.records if max_rank is None or rec.r <= max_rank]


def golden_problems(lib, tables) -> list:
    """Rows up to rank 19 (F_0) and 20 (F_1) must equal the golden tables."""
    problems = []
    for e in (0, 1):
        top = min(GOLDEN_RANKS[e], tables[e].max_rank)
        if table_rows(lib, tables[e], top) != golden_rows(e, top):
            problems.append("F_%d table rows up to rank %d differ from golden_tables.jsonl" % (e, top))
    return problems


def build_tables(lib, ranks, tracer=None):
    """Exceptional tables {e: ranks <= ranks[e]}, one build_table call per
    surface from scratch as the library's callers make it, with their
    (seconds, scaled seconds).

    A build runs for seconds while the machine's speed drifts, so about
    every CALIBRATE_EVERY_S a probe is taken inside it, on entry to
    dlp.dlp_below_rank (where a build spends about 90% of its time).  Each
    stretch between probes is scaled by the probes around it, and the
    probes' own time is left out.  A traced build is timed whole, so that
    no probe lands in its spans."""
    build = lib.exceptional.build_table
    if tracer is not None:
        tables, seconds, scaled_s = {}, 0.0, 0.0
        for e, top in ranks.items():
            tables[e], took, took_scaled = timed(lambda: build(e, top))
            seconds += took
            scaled_s += took_scaled
        return tables, seconds, scaled_s
    below = lib.dlp.dlp_below_rank
    stretches = []                      # (seconds, mean of the probes around)
    mark = [perf_counter(), probe()]

    def close_stretch(now):
        p = probe()
        stretches.append((now - mark[0], (mark[1] + p) / 2))
        mark[:] = [perf_counter(), p]

    def probing(*args, **kwargs):
        now = perf_counter()
        if now - mark[0] >= CALIBRATE_EVERY_S:
            close_stretch(now)
        return below(*args, **kwargs)

    lib.dlp.dlp_below_rank = probing
    try:
        tables = {e: build(e, top) for e, top in ranks.items()}
    finally:
        lib.dlp.dlp_below_rank = below
    close_stretch(perf_counter())
    return tables, sum(s for s, _ in stretches), sum(scaled(s, p) for s, p in stretches)


class Workload:
    """Defaults shared by the workloads; see run.py for the call order."""

    def begin_phase(self, state, workdir):
        pass


# ---------------------------------------------------------------------------
# decide_sweep: the low-rank decision engine over the criterion-3 corpus

SLICES = [(e, m) for e in (0, 1) for m in (Q(1, 3), Q(1), Q(3, 2), Q(12, 7), Q(3))]


def corpus(e):
    """Every integral (r, a, b, 2 ch2) with r <= 6, |a|, |b| <= 6, 0 <= Delta <= 3."""
    keys = []
    for r in range(1, 7):
        for a in range(-6, 7):
            for b in range(-6, 7):
                c1sq = 2 * a * b - e * a * a
                c2_lo = -((-(c1sq * (r - 1))) // (2 * r))
                for c2 in range(c2_lo, c2_lo + 3 * r + 1):
                    s = c1sq - 2 * c2
                    d2 = c1sq - r * s          # 2 r^2 Delta
                    if 0 <= d2 <= 6 * r * r:
                        keys.append((r, a, b, s))
    return keys


class DecideSweep(Workload):
    name = "decide_sweep"
    why = "the low-rank engine (existence plus prioritary) with heavy memo reuse and no dlp or exceptional calls"
    sizes = {"full": 2000, "tiny": 15}     # characters per (e, m) slice
    # The tail percentile is set by the 20 costliest decisions, nearly all
    # rank 6 on F_0 at m = 1/3; a large sample steadies it.

    def setup(self, lib, seed, size):
        rng = random.Random(seed)
        corpora = {e: corpus(e) for e in (0, 1)}
        slices = list(SLICES)
        rng.shuffle(slices)
        state = {"slices": []}
        for e, m in slices:
            keys = rng.sample(corpora[e], self.sizes[size])
            chars = [lib.ChernCharacter(r, lib.DivisorClass(a, b), Q(s, 2)) for r, a, b, s in keys]
            state["slices"].append((e, m, keys, chars))
        return state

    def run_pass(self, lib, state, index, tracer):
        out = Pass(sum(len(chars) for _, _, _, chars in state["slices"]))
        hn = lib.existence.hn_generic
        clear = lib.existence.clear_cache
        start = 0
        for e, m, _, chars in state["slices"]:
            clear()
            _timed_ops(chars, lambda v: hn(v, m, e), out, start, tracer)
            start += len(chars)
        return out

    def ops(self, state):
        return [(e, m, key, v) for e, m, keys, chars in state["slices"] for key, v in zip(keys, chars)]

    def canonical(self, lib, state, p):
        outputs = p.outputs
        rows = []
        for (e, m, key, _), dec in zip(self.ops(state), outputs):
            if dec is None or is_error(dec):
                res = None if dec is None else list(dec)
            else:
                res = [[f.r, str(f.c1.a), str(f.c1.b), str(f.ch2)] for f in dec.factors]
            rows.append([e, str(m), list(key), res])
        return rows

    def check(self, lib, state, p):
        outputs = p.outputs
        problems = []
        for (e, m, key, v), dec in zip(self.ops(state), outputs):
            if is_error(dec):
                problems.append("hn_generic(%r, %s, %d) raised %s" % (key, m, e, dec[1]))
            elif dec is not None and len(dec.factors) >= 2:
                try:
                    lib.validate_hn(dec, v, check_moduli=False)
                except AssertionError as err:
                    problems.append("invalid filtration for %r at m=%s e=%d: %s" % (key, m, e, err))
        return problems

    def traffic(self, state, p):
        outputs = p.outputs
        mix = Counter()
        for (e, m, key, _), dec in zip(self.ops(state), outputs):
            if is_error(dec):
                verdict = "ERROR"
            elif dec is None:
                verdict = "NO_PRIORITARY"
            else:
                verdict = "NONEMPTY" if len(dec.factors) == 1 else "EMPTY"
            mix["r%d.%s" % (key[0], verdict)] += 1
        return {"verdict_by_rank": dict(sorted(mix.items())),
                "slice_order": ["e=%d,m=%s" % (e, m) for e, m, _, _ in state["slices"]]}


# ---------------------------------------------------------------------------
# delta_bracket: high-rank searches behind the sharp Bogomolov bracket

def _residues(dmax):
    return sorted({Q(p, d) for d in range(1, dmax + 1) for p in range(d)})


def bracket_classes():
    """Fixed slope classes mod Z^2 (denominators <= 5) with their rank cutoff.

    The search cost of a bracket depends on its slope class much more than
    on the integral twist, so a pass covers the same classes for every seed
    and the seed only draws the twists.  Classes whose minimal integral rank
    r0 is 5 or 15 are left out, and r0 = 3 keeps only the classes with an
    integral coordinate: those brackets cost 0.3-1.7 s each, so many of them
    would decide the pass time and make it swing from seed to seed.  r0 = 1
    runs to cutoff 16 so that rank-16 searches are in the mix.
    """
    out = []
    for e in (0, 1):
        for x in _residues(5):
            for y in _residues(5):
                r0 = math.lcm(x.denominator, y.denominator)
                if r0 in (5, 15) or (r0 == 3 and x and y):
                    continue
                out.append((e, x, y, 16 if r0 == 1 else 15))
    return out


def _twist_range(x):
    # integers t with numerator of x + t in [-6, 6]
    p, d = x.numerator, x.denominator
    return range(-((6 + p) // d), (6 - p) // d + 1)


def semistable_split(lib, w, m, e):
    """Characters (w1, w2) with w = w1 + w2, both NONEMPTY at H_m and with
    the reduced H_m-Hilbert polynomial of w, or None.  A direct sum of two
    such sheaves is Gieseker semistable but not stable, so w then carries a
    strictly semistable sheaf.  The search is exhaustive: equal slopes put
    nu1 - nu2 on the line a m + b = 0, where D^2 = -(2m + e) a^2, and
    Delta(w) = (r1 Delta1 + r2 Delta2)/r + (2m + e) r1 r2 (a1/r1 - a2/r2)^2 / (2 r^2)
    with Delta1, Delta2 >= 0 bounds abs(a1/r1 - nu.a)."""
    key = lib.reduced_hilbert_key(w, m, e)
    nu, delta = w.nu(), w.delta(e)
    for r1 in range(1, w.r // 2 + 1):         # (w2, w1) is a split too
        r2 = w.r - r1
        # (a1/r1 - nu.a)^2 <= 2 r2 Delta / (r1 (2m + e))
        reach = math.isqrt(math.ceil(2 * r2 * delta / (r1 * (2 * m + e)))) + 1
        for a1 in range(math.floor(r1 * (nu.a - reach)), math.ceil(r1 * (nu.a + reach)) + 1):
            nu1 = lib.DivisorClass(Q(a1, r1), key[0] - Q(a1, r1) * m)
            try:
                w1 = lib.from_rank_slope_disc(r1, nu1, lib.hilbert_P(nu1, e) - key[1], e)
            except lib.IntegralityError:
                continue
            w2 = w - w1
            assert lib.reduced_hilbert_key(w2, m, e) == key
            if all(lib.moduli_nonempty(x, m, e).verdict == lib.NONEMPTY for x in (w1, w2)):
                return w1, w2
    return None


class DeltaBracket(Workload):
    name = "delta_bracket"
    why = "the high-rank _search behind delta_estimate, one dlp call per bracket, tables prebuilt in setup"
    # (slope classes, None = all; twists per class).  Two twists per class
    # put more brackets next to the tail percentile, whose value would hang
    # on the twists of two or three classes with one.  The classes scanned
    # up to rank 15 or 16 (r0 = 1 or 3) cost 0.4-1 s a bracket and lie above
    # that percentile, so they run at one twist.
    sizes = {"full": (None, 2), "tiny": (6, 1)}

    def setup(self, lib, seed, size):
        rng = random.Random(seed)
        n_classes, n_twists = self.sizes[size]
        t = perf_counter()
        tables = {e: lib.exceptional.build_table(e, r) for e, r in GOLDEN_RANKS.items()}
        build_s = perf_counter() - t
        classes = bracket_classes()
        if n_classes is not None:
            classes = [c for c in classes if c[3] == 15 and math.lcm(c[1].denominator, c[2].denominator) >= 10]
            classes = classes[:n_classes]
        brackets = []
        for e, x, y, cutoff in classes:
            twists = [(s, t) for s in _twist_range(x) for t in _twist_range(y)]
            deep = math.lcm(x.denominator, y.denominator) in (1, 3)
            for s, t in rng.sample(twists, 1 if deep else n_twists):
                brackets.append((e, lib.DivisorClass(x + s, y + t), cutoff))
        rng.shuffle(brackets)
        return {"brackets": brackets, "tables": tables, "build_s": build_s}

    def run_pass(self, lib, state, index, tracer):
        out = Pass(len(state["brackets"]))
        estimate = lib.existence.delta_estimate
        clear = lib.existence.clear_cache
        tables = state["tables"]

        def one(op):
            e, nu, cutoff = op
            clear()
            return estimate(nu, 1 - Q(e, 2), e, cutoff, tables[e])

        _timed_ops(state["brackets"], one, out, 0, tracer)
        return out

    def canonical(self, lib, state, p):
        outputs = p.outputs
        rows = []
        for (e, nu, cutoff), br in zip(state["brackets"], outputs):
            if is_error(br):
                res = list(br)
            else:
                w = br.witness
                res = [q(br.lower), q(br.upper),
                       None if w is None else [w.r, str(w.c1.a), str(w.c1.b), str(w.ch2)], br.wall]
            rows.append([e, str(nu.a), str(nu.b), cutoff, res])
        return rows

    def check(self, lib, state, p):
        outputs = p.outputs
        problems = golden_problems(lib, state["tables"])
        for (e, nu, cutoff), br in zip(state["brackets"], outputs):
            tag = "delta_estimate(%s,%s; e=%d, cutoff %d)" % (nu.a, nu.b, e, cutoff)
            if is_error(br):
                problems.append("%s raised %s" % (tag, br[1]))
                continue
            if br.upper is None:
                if br.witness is not None:
                    problems.append("%s: witness without an upper bound" % tag)
                continue
            w = br.witness
            if w is None or w.delta(e) != br.upper:
                problems.append("%s: witness does not realise the upper bound" % tag)
                continue
            m = 1 - Q(e, 2)
            lib.existence.clear_cache()
            if lib.moduli_nonempty(w, m, e).verdict != lib.NONEMPTY:
                problems.append("%s: witness %r is not NONEMPTY" % (tag, w))
            # The DLP bound holds for stable sheaves.  A witness below it is
            # accepted only with a proof that it is strictly semistable.
            if br.lower > br.upper and semistable_split(lib, w, m, e) is None:
                problems.append("%s: lower %s > upper %s and the witness %r has no semistable split"
                                % (tag, br.lower, br.upper, w))
        return problems

    def traffic(self, state, p):
        outputs = p.outputs
        deepest, witness_rank = Counter(), Counter()
        walls = lower_above_upper = no_upper = 0
        for (e, nu, cutoff), br in zip(state["brackets"], outputs):
            r0 = math.lcm(nu.a.denominator, nu.b.denominator)
            deepest["r%d" % (r0 * (cutoff // r0))] += 1
            if is_error(br):
                continue
            walls += br.wall
            if br.upper is None:
                no_upper += 1
            else:
                witness_rank["r%d" % br.witness.r] += 1
                lower_above_upper += br.lower > br.upper
        return {"deepest_rank": dict(sorted(deepest.items())), "witness_rank": dict(sorted(witness_rank.items())),
                "wall": walls, "no_upper": no_upper, "lower_above_upper_split": lower_above_upper}


# ---------------------------------------------------------------------------
# tables_dlp: exceptional tables from scratch, then DLP^{<r} queries

class TablesDlp(Workload):
    name = "tables_dlp"
    why = "exceptional tables built from scratch, then dlp_below_rank queries: exceptional, dlp and the lattice Fraction kernel, no existence calls"
    # (F_0 max rank, F_1 max rank, queries per pass)
    sizes = {"full": (39, 40, 234), "tiny": (9, 10, 18)}

    def setup(self, lib, seed, size):
        rng = random.Random(seed)
        r0max, _, n = self.sizes[size]
        # m sets the size of the twist search, so every p/q is drawn once
        # before any repeats (the pass time then varies little with the seed)
        ms = [Q(p, q) for p in range(1, 25) for q in range(1, 9)]
        rng.shuffle(ms)
        queries = []
        for i in range(n):
            # every cutoff 2 .. r0max + 1 equally often on both surfaces
            e = (i // r0max) % 2
            cutoff = 2 + i % r0max
            da, db = rng.randint(1, 12), rng.randint(1, 12)
            nu = lib.DivisorClass(Q(rng.randint(-12, 12), da), Q(rng.randint(-12, 12), db))
            queries.append((e, nu, ms[i % len(ms)], cutoff))
        rng.shuffle(queries)
        return {"size": size, "queries": queries}

    def run_pass(self, lib, state, index, tracer):
        out = Pass(len(state["queries"]))
        r0max, r1max, _ = self.sizes[state["size"]]
        tables, seconds, scaled_s = build_tables(lib, {0: r0max, 1: r1max}, tracer)
        out.builds_s.append((seconds, scaled_s))
        out.tables = tables
        below = lib.dlp.dlp_below_rank
        _timed_ops(state["queries"], lambda op: below(op[1], op[2], op[0], op[3], tables[op[0]]), out, 0, tracer)
        return out

    def canonical(self, lib, state, p):
        rows = [table_rows(lib, p.tables[e]) for e in (0, 1)]
        for (e, nu, m, cutoff), val in zip(state["queries"], p.outputs):
            res = list(val) if is_error(val) else [q(val.value), list(val.witness) if val.witness else None,
                                                   val.equal_slope]
            rows.append([e, str(nu.a), str(nu.b), str(m), cutoff, res])
        return rows

    def check(self, lib, state, p):
        problems = golden_problems(lib, p.tables)
        problems += ["dlp_below_rank%r raised %s" % (op, val[1])
                     for op, val in zip(state["queries"], p.outputs) if is_error(val)]
        return problems

    def traffic(self, state, p):
        cutoffs = Counter(op[3] for op in state["queries"])
        ms = Counter(str(op[2]) for op in state["queries"])
        return {"cutoff": {str(k): v for k, v in sorted(cutoffs.items())},
                "m": dict(sorted(ms.items(), key=lambda kv: Q(kv[0]))),
                "surface": dict(Counter("F_%d" % op[0] for op in state["queries"]))}


# ---------------------------------------------------------------------------
# cli_session: one-shot hirz commands

BUILD_CMD = "exceptional --e 0 --max-rank 19"
CACHE_CMD = "exceptional --e 1 --max-rank 20 --cache {cache}"
CLI_COMMANDS = [
    # the README's ten examples
    BUILD_CMD,
    CACHE_CMD,
    "exists --e 0 --char 15,3,5,-8 --m 2509/900",
    "exists --e 4 --char 3,1,3,-1 --m 1",
    "hn --e 1 --char 13,3,6,-13/2 --m 1207/700",
    "dlp --e 0 --m 25/9 --nu 1/5,1/3 --below-rank 15",
    "delta --e 1 --m 12/7 --nu 3/13,6/13 --max-rank 13",
    "kronecker --e 1 --ell 3 --abcd 1,1,2,13",
    "reduce --e 4 --char 3,1,3,-1 --m 1",
    "grid --e 0 --m 1 --square 0,1,0,1 --steps 3 --below-rank 8",
    # the F_0 Kronecker example of acceptance criterion 2
    "kronecker --e 0 --ell 3 --abcd 1,1,2,15",
    "delta --e 0 --m 25/9 --nu 1/5,1/3 --max-rank 15",
    # the cached command again: it reads what its first run wrote
    CACHE_CMD,
]
CLI_TINY = [1, 2, 3, 7, 8, 12]       # the cache pair and the cheapest commands
SUBCOMMANDS = ("exceptional", "exists", "hn", "dlp", "delta", "kronecker", "reduce", "grid")


class CliSession(Workload):
    name = "cli_session"
    why = "the only workload covering cli, reduction, kronecker and the exceptional-table cache write and read paths"
    sizes = {"full": None, "tiny": CLI_TINY}

    def setup(self, lib, seed, size):
        os.environ.pop("HIRZ_CACHE", None)
        picked = self.sizes[size]
        commands = CLI_COMMANDS if picked is None else [CLI_COMMANDS[i] for i in picked]
        return {"commands": commands, "seed": seed, "workdir": None, "stability_on_load": None}

    def begin_phase(self, state, workdir):
        state["workdir"] = workdir

    def run_pass(self, lib, state, index, tracer):
        """The seed's permutation of the commands, with a fresh cache file
        that the first cached command writes and the second reads.  The two
        commands that build a table from scratch (the uncached `exceptional`
        and the cache write) count as the pass's table build."""
        commands = state["commands"]
        out = Pass(len(commands))
        main = lib.cli.main
        clear = lib.existence.clear_cache
        order = list(range(len(commands)))
        random.Random("%d:%d" % (state["seed"], index)).shuffle(order)
        slots = [i for i in range(len(commands)) if commands[i] == CACHE_CMD]   # write, then read
        cached = iter(slots)
        order = [next(cached) if commands[i] == CACHE_CMD else i for i in order]
        cache = os.path.join(state["workdir"], "exc-%d.jsonl" % index)
        out.cache = Counter()
        stdout = io.StringIO()
        stderr = io.StringIO()
        t0 = perf_counter()
        for i in order:
            argv = commands[i].format(cache=cache).split()
            loading = commands[i] == CACHE_CMD and os.path.exists(cache)
            before = tracer.calls("exceptional.stability_interval") if tracer and loading else 0
            if tracer is not None:
                tracer.op += 1
            clear()
            for buf in (stdout, stderr):
                buf.seek(0)
                buf.truncate()
            t = perf_counter_ns()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = main(argv)
                res = [rc, stdout.getvalue()]
            except Exception as err:  # counted as a failed op by the checks
                res = ("error", "%s: %s" % (type(err).__name__, err))
            out.record(i, res, perf_counter_ns() - t)
            if commands[i] == CACHE_CMD:
                out.cache["loads" if loading else "builds"] += 1
                if tracer and loading:      # a run traces one pass
                    state["stability_on_load"] = tracer.calls("exceptional.stability_interval") - before
        out.flush_probe()
        out.wall_s = perf_counter() - t0
        built = [i for i in range(len(commands)) if commands[i] == BUILD_CMD or i == slots[0]]
        out.builds_s.append((sum(out.lat_ns[i] for i in built) / 1e9,
                             sum(scaled(out.lat_ns[i], out.probe_s[i]) for i in built) / 1e9))
        if os.path.exists(cache):
            os.remove(cache)
        return out

    def canonical(self, lib, state, p):
        return [[cmd, list(res)] for cmd, res in zip(state["commands"], p.outputs)]

    def check(self, lib, state, p):
        problems = []
        expect = {BUILD_CMD: golden_rows(0, 19), CACHE_CMD: golden_rows(1, 20)}
        for cmd, res in zip(state["commands"], p.outputs):
            if is_error(res):
                problems.append("hirz %s raised %s" % (cmd, res[1]))
            elif res[0] != 0:
                problems.append("hirz %s exited %r" % (cmd, res[0]))
            elif cmd in expect and res[1].splitlines() != expect[cmd]:
                problems.append("hirz %s printed rows that differ from golden_tables.jsonl" % cmd)
        return problems

    def traffic(self, state, p):
        mix = Counter(cmd.split()[0] for cmd in state["commands"])
        return {"commands": dict(sorted(mix.items())), "cache_builds": p.cache["builds"],
                "cache_loads": p.cache["loads"],
                "stability_interval_calls_on_cache_load": state["stability_on_load"]}


WORKLOADS = {w.name: w for w in (DecideSweep(), DeltaBracket(), TablesDlp(), CliSession())}
