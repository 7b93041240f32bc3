#!/usr/bin/env python3
"""servebench: build cqac_serve and the benchmark driver, then run it.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --self-test

Builds (RelWithDebInfo, -O2) into $CARGO_TARGET_DIR/servebench, or
.bench_build/servebench when that is unset, relative to the repository
root. Build output goes to stderr; the driver's last stdout line is the
JSON result.
"""
import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def die_with_parent():
    """Makes the child get SIGKILL when this process dies (Linux)."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", "4",
           "--target", "cqac_serve", "servebench_driver"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "serve"))):
        log("the cqac sources are not next to servebench/; nothing to build")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "servebench")
    if not build(build_dir):
        log("build failed")
        return 2
    driver = os.path.join(build_dir, "servebench_driver")
    if argv == ["--self-test"]:
        return subprocess.call([driver, "--self-test"])
    server = os.path.join(build_dir, "cqac", "tools", "cqac_serve")
    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return subprocess.call([driver, "--server", server,
                                "--workdir", workdir] + argv,
                               preexec_fn=die_with_parent)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
