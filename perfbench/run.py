#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

    python3 perfbench/run.py --workload caps_mc --seed 1 --seconds 10 --trace 0

Run from the repository root. The vps libraries and the perfbench binary
are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. Every argument is
passed to the binary, which validates it, runs the workload and prints the
JSON result as its last stdout line. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no vps sources next to perfbench/ (expected src/)\n")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    args = sys.argv[1:]
    if "--self-test" not in args and "--reference" not in args:
        defaults = {"--digests": os.path.join(HERE, "digests.txt"), "--git-sha": git_sha(),
                    "--work-dir": os.path.join(build_dir, "work")}
        for flag, value in defaults.items():
            if flag not in args:
                args += [flag, value]
    command = [os.path.join(build_dir, "perfbench")] + args
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
