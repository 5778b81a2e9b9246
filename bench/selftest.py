#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at the tiny size, plain and traced, and checks that:
the outputs check out; every metric named in BENCHMARK.json is printed with
its unit and no other; the traced run matches the plain one; a corrupted
result is caught by the digest check; and a directory holding only the
benchmark (no library) makes run.py exit non-zero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import tracing
import workloads

SEED = 1


def fail(msg):
    sys.stderr.write("selftest: FAIL: %s\n" % msg)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(per_layer == dict(tracing.PER_LAYER), "BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    expect({w["name"]: w["why"] for w in bench["workloads"]}
           == {name: wl.why for name, wl in workloads.WORKLOADS.items()},
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    digests = {}
    for name in workloads.WORKLOADS:
        for trace, units in ((0, e2e), (1, per_layer)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "1",
                                 "--trace", str(trace), "--size", "tiny"])
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            tag = "%s --trace %d" % (name, trace)
            expect(code == 0 and result["correct"], "%s: not correct: %s" % (tag, report["problems"]))
            expect(report["seconds"] == 1, "%s: the run lost its --seconds" % tag)
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], "%s: result keys" % tag)
            expect(result["failed"] == 0 and result["attempted"] >= 1, "%s: attempted/failed" % tag)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, "%s: metrics differ from BENCHMARK.json: %s" % (tag, sorted(set(got) ^ set(units))))
            digests.setdefault(name, set()).add(report["digest"])
        expect(len(digests[name]) == 1, "%s: traced digest differs from the plain one" % name)
        print("selftest: %-13s ok  (digest %s)" % (name, next(iter(digests[name]))[:12]))

    # a corrupted result must be caught by the digest check
    name = "decide_sweep"
    wl = workloads.WORKLOADS[name]
    honest = wl.canonical

    def corrupted(lib, state, p):
        rows = honest(lib, state, p)
        rows[0] = rows[0][:-1] + [[["corrupted"]]]
        return rows

    wl.canonical = corrupted
    try:
        ref = {name: {str(SEED): next(iter(digests[name]))}}
        result, report = run.execute(name, SEED, 1, 0, "tiny", reference=ref)
    finally:
        del wl.canonical
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a corrupted result was not caught by the digest check")
    expect(result["metrics"]["ok_ratio"]["value"] == 0, "ok_ratio should be 0 after a digest mismatch")
    print("selftest: corrupted result caught by the digest check")

    # without the library the command fails and prints no result
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench["command"] + ["--workload", name, "--seed", "1", "--seconds", "1",
                                                  "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "a checkout without src/ should fail without a result (exit %d)" % proc.returncode)
    print("selftest: a checkout without the library exits %d with no result" % proc.returncode)
    print("selftest: ok")


if __name__ == "__main__":
    main()
