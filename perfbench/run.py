#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
checks its results, and prints one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload raster --seed 42 --seconds 20 --trace 0

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (which also writes a Chrome trace-event file under the build
directory). The exit code is 0 only if every statement succeeded and
matched the first timed pass and, for seeds with stored reference values
(perfbench/reference.json), those values.

    python3 perfbench/run.py --update-reference --seed 42
        records the reference values of every workload for that seed.
    python3 perfbench/run.py --self-test
        builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("raster", "vector", "streams")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # The build stays inside the checkout. CARGO_TARGET_DIR names the
    # build directory when set; cmake trees go in a subdirectory of it.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the repository sources (src/) are missing")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", target]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, target)


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-%d.json" % (workload, seed))]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if not lines:
        log("perfbench: %s printed no result (exit %d)" % (workload, r.returncode))
        sys.exit(1)
    return r.returncode, json.loads(lines[-1])


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_reference(res, ref):
    """Failures (statement attempts) where the run disagrees with `ref`."""
    failed = 0
    for name, want in ref["digests"].items():
        got = res["digests"].get(name)
        if got != want:
            log("perfbench: %s differs from the reference: %s, expected %s"
                % (name, got, want))
            failed += res["attempts"].get(name, 1)
    for name in res["digests"]:
        if name not in ref["digests"]:
            log("perfbench: %s has no reference value" % name)
            failed += res["attempts"].get(name, 1)
    for i, (got, want) in enumerate(zip(res["pass_modeled_s"],
                                        ref["pass_modeled_s"])):
        if got != want:
            log("perfbench: timed pass %d charged %r modeled s, expected %r"
                % (i, got, want))
            failed += 1
    return failed


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        binary = build("perfbench_test")
        sys.exit(subprocess.run([binary]).returncode)

    binary = build("perfbench")
    if a.update_reference:
        ref = load_reference() if os.path.exists(REFERENCE) else {}
        entry = ref.setdefault(str(a.seed), {})
        for w in WORKLOADS:
            code, res = run_workload(binary, w, a.seed, 5, 0)
            if code != 0 or res["failed"]:
                log("perfbench: %s failed; reference not updated" % w)
                sys.exit(1)
            entry[w] = {"digests": res["digests"],
                        "pass_modeled_s": res["pass_modeled_s"]}
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        return

    if a.workload is None:
        p.error("--workload is required")
    code, res = run_workload(binary, a.workload, a.seed, a.seconds, a.trace)
    attempted, failed = res["attempted"], res["failed"]
    ref = load_reference().get(str(a.seed), {}).get(a.workload)
    if ref is not None:
        failed += check_reference(res, ref)
    metrics = res["metrics"]
    if not a.trace:
        # failed_frac is reported as its complement: a metric must never
        # read 0, and a run with no failures has failed_frac == 0.
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted,
                              "unit": "ratio"}
    correct = code == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
