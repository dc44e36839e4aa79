#!/usr/bin/env python3
"""Builds and runs the FutureRD detection benchmark.

    python3 frdbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 frdbench/run.py --selftest

Run from the repository root. The benchmark is compiled from the tree's own
sources into .bench_build/frdbench (or $CARGO_TARGET_DIR/frdbench when that
is set) with CMake; build output goes to stderr so that the last line of
stdout stays the benchmark's JSON result. Span files of traced runs go to
.bench_out/. --selftest builds and runs the checks that show every
correctness check of the benchmark can fail.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"frdbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-1 over the library sources: identifies the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        rev = out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    return f"{rev} src-sha1:{source_digest()}"


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.hpp")):
        fail("no FutureRD sources next to the benchmark (src/ is missing)")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "frdbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def main(argv):
    if argv == ["--selftest"]:
        build_dir = build(["frdbench_selftest"])
        return subprocess.run(
            [os.path.join(build_dir, "frdbench_selftest"),
             os.path.join(ROOT, "corpus")], cwd=build_dir).returncode
    build_dir = build(["frdbench"])
    cmd = [os.path.join(build_dir, "frdbench"), *argv,
           "--corpus", os.path.join(ROOT, "corpus"),
           "--out", os.path.join(ROOT, ".bench_out"),
           "--commit", commit_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
