#!/usr/bin/env python3
"""Build the repo benchmark from source and run it.

    python3 perfbench/run.py --workload engine_chat --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; traced runs write their Chrome
traces next to it. The last line of standard output is the benchmark's JSON
result. See perfbench/README.md.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    """Configure once, then build `target`; the log stays in build_dir."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(build_dir, target)


def source_rev():
    """The git commit when there is one, else a digest of the library sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(cmd):
    """Run the benchmark binary, echoing its output; returns (exit code, last line)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    last = ""
    for line in child.stdout:
        sys.stdout.write(line)
        if line.strip():
            last = line.strip()
    sys.stdout.flush()
    return child.wait(), last


def check_names(result_line, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(result_line)["metrics"].items()}
    if got != wanted:
        fail(f"printed metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if argv == ["--selftest"]:
        code, _ = run([build(build_dir, "perfbench_selftest")])
        return code
    binary = build(build_dir, "perfbench")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    code, last = run([binary, *argv, "--trace-dir", trace_dir,
                      "--source-rev", source_rev()])
    if code == 0 and flag(argv, "--workload") != "all":
        check_names(last, flag(argv, "--trace") == "1")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
