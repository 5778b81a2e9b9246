#!/usr/bin/env python3
"""Benchmark of the hirzebruch library.

    python3 bench/run.py --workload decide_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  One process, one thread, a closed loop with one client:
each operation starts when the previous one has returned.

A run sets the workload up several times (import, inputs, any prebuilt
table) and reports the median as `setup_s`.  It then repeats whole passes
over the seed's operations for about `--seconds` (at least two), checks
every output, and prints the end-to-end metrics, taking each op's median
time over the passes.  With `--trace 1` it instead runs a plain, a traced and a
plain pass over the same operations and prints the per-layer metrics (see
tracing.py); the traced outputs must equal the plain ones.  bench/README.md
defines every metric.

The last line of stdout is the result object; the line before it carries
the report: digest, traffic record, tail percentile and run metadata.  Both
are also written to `.bench_out/` in the checkout, with the spans of a
traced run.  The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("table_build_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]
# set-ups per run: at least the first number, and more while they have
# taken less than the second number of seconds, up to the third
SETUP_REPS = {"full": (7, 1.0, 60), "tiny": (1, 0.0, 1)}
MIN_PASSES = {"full": 2, "tiny": 1}
PROBE_BUILDS = {"full": 5, "tiny": 1}       # decide_sweep only
TAIL_LADDER = (99.9, 99, 90, 50)


class MissingLibrary(RuntimeError):
    pass


def import_library():
    """A fresh import of `hirzebruch` (and its cli) from the checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "hirzebruch", "__init__.py")):
        raise MissingLibrary("no hirzebruch package under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "hirzebruch" or n.startswith("hirzebruch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("hirzebruch")
    importlib.import_module("hirzebruch.cli")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise MissingLibrary("hirzebruch was imported from %s, not from %s" % (lib.__file__, SRC))
    return lib


def percentile(ordered, p):
    """Linear interpolation between closest ranks of a sorted list."""
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_percentile(n):
    """The highest percentile of the ladder with at least 10 samples beyond
    it; the maximum when there are fewer than 20 samples."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p
    return 100


def digest(rows):
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def load_reference(size):
    try:
        with open(REFERENCE) as fh:
            return json.load(fh).get(size, {})
    except FileNotFoundError:
        return {}


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hirzebruch")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def execute(name, seed, run_seconds, trace, size="full", reference=None):
    """Run one workload; returns (result, report)."""
    wl = workloads.WORKLOADS[name]
    if reference is None:
        reference = load_reference(size)
    load_start = os.getloadavg()

    setup_s, builds = [], []

    def set_up():
        lib = import_library()
        return lib, wl.setup(lib, seed, size)

    reps, min_s, max_reps = SETUP_REPS[size]
    while len(setup_s) < reps or (sum(s for s, _ in setup_s) < min_s and len(setup_s) < max_reps):
        (lib, state), took, scaled_s = workloads.timed(set_up)
        setup_s.append((took, scaled_s))
        if "build_s" in state:      # tables built in setup, scaled like it
            builds.append((state["build_s"], state["build_s"] * scaled_s / took))

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    problems = []

    def compare(k, p):
        """Pass k must repeat pass 0 exactly; its outputs are dropped after."""
        again = wl.canonical(lib, state, p)
        differ = sum(a != b for a, b in zip(rows, again)) + abs(len(rows) - len(again))
        if differ:
            problems.append("pass %d differs from pass 0 on %d outputs" % (k, differ))
        p.outputs = None

    # --trace 1 runs a plain, a traced and a plain pass: the first warms up
    # and the overhead ratio compares the last two
    tracers = (None, tracing.Tracer(), None) if trace else None
    try:
        passes, pass_s = [], []
        wl.begin_phase(state, workdir)
        start = perf_counter()
        while True:
            k = len(passes)
            tr = tracers[k] if trace else None
            t = perf_counter()
            if tr is not None:
                tr.install()
            try:
                passes.append(wl.run_pass(lib, state, 0 if trace else k, tr))
            finally:
                if tr is not None:
                    tr.uninstall()
            pass_s.append(perf_counter() - t)
            if k == 0:
                first = passes[0]
                rows = wl.canonical(lib, state, first)
            else:
                compare(k, passes[k])
            if trace:
                if k == len(tracers) - 1:
                    break
            elif k + 1 >= MIN_PASSES[size] and perf_counter() - start + pass_s[-1] > run_seconds:
                break       # another pass would overrun the measuring time

        problems += wl.check(lib, state, first)
        builds += [b for p in passes for b in p.builds_s]
        if not builds:
            # decide_sweep builds no tables: time the golden pair from
            # scratch so that table_build_s is defined on every workload
            for _ in range(PROBE_BUILDS[size]):
                tables, took, scaled_s = workloads.build_tables(lib, workloads.GOLDEN_RANKS)
                builds.append((took, scaled_s))
            problems += workloads.golden_problems(lib, tables)
        traffic = wl.traffic(state, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.lat_ns) for p in passes)
    failed = min(attempted, len(problems))
    got = digest(rows)
    want = reference.get(name, {}).get(str(seed))
    if want is not None and got != want:
        problems.append("digest %s differs from the reference %s" % (got, want))
        failed = attempted      # every output of the run is in doubt

    # Every pass repeats the same work, so each op counts with the median of
    # its times over the passes.
    ops = range(len(passes[0].lat_ns))
    scaled_ms = sorted(statistics.median(workloads.scaled(p.lat_ns[i], p.probe_s[i]) for p in passes) / 1e6
                       for i in ops)
    raw_ms = sorted(statistics.median(p.lat_ns[i] for p in passes) / 1e6 for i in ops)
    tail_p = tail_percentile(len(scaled_ms))
    probes = [pr for p in passes for pr in p.probe_s]

    def summary(ms, setup, builds):
        return {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": len(ms) / (sum(ms) / 1e3),
            "latency_p50_ms": percentile(ms, 50),
            "latency_tail_ms": percentile(ms, tail_p),
            "table_build_s": statistics.median(builds),
        }

    raw = summary(raw_ms, [s for s, _ in setup_s], [b for b, _ in builds])
    scaled = summary(scaled_ms, [s for _, s in setup_s], [b for _, b in builds])
    if trace:
        def pass_scaled_s(p):
            return (sum(map(workloads.scaled, p.lat_ns, p.probe_s)) / 1e9
                    + sum(b for _, b in p.builds_s))

        ratio = pass_scaled_s(passes[1]) / pass_scaled_s(passes[2])
        speed = workloads.CAL_REF_S / statistics.median(passes[1].probe_s)
        values = tracers[1].metrics(ratio, tracing.lattice_ns_per_call(lib), speed)
        units = dict(tracing.PER_LAYER)
    else:
        values = dict(scaled)
        values["ok_ratio"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": run_seconds,
        "trace": trace,
        "passes": len(passes),
        "pass_s": pass_s,
        "ops_per_pass": len(scaled_ms),
        "raw": raw,
        "calibration": {"ref_s": workloads.CAL_REF_S, "fastest_s": min(probes),
                        "median_s": statistics.median(probes), "slowest_s": max(probes)},
        "plain_throughput_ops_s": attempted / sum(p.wall_s for p in passes),
        "tail_percentile": tail_p,
        "setup_s": setup_s,
        "table_build_s": builds,
        "digest": got,
        "reference_digest": want,
        "problems": problems[:20],
        "traffic": traffic,
        "meta": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "src_sha256": src_sha256(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    }
    stem = os.path.join(OUT, "%s%s-seed%d-trace%d" % (name, "" if size == "full" else "-" + size, seed, trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    if trace:
        tracers[1].write_spans(stem + ".spans.csv")
    return result, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a few operations per workload, for the self-test")
    args = ap.parse_args(argv)
    try:
        result, report = execute(args.workload, args.seed, args.seconds, args.trace, args.size)
    except MissingLibrary as err:
        sys.stderr.write("bench: %s\n" % err)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
