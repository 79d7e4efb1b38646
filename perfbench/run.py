#!/usr/bin/env python3
"""Build and run the simulator cost benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload apps --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --trace 1    # every metric, every workload
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The driver is built from ../src into
.bench_build/perfbench on first use (Release); later runs only re-check the
build. The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "apn_perfbench")
EXPECTED = os.path.join(HERE, "expected.tsv")
# `all` runs these; `apps` combines the bfs_teps and hsg_scaling points.
WORKLOADS = ["p2p_bandwidth", "small_msg_latency", "bfs_teps", "hsg_scaling"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the driver up to date."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)


def source_digest():
    """Hash of the simulator and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env():
    # APN_* variables switch on the simulator's debug tooling (race
    # detector, trace dumps, hardware profile); the benchmark runs without.
    return {k: v for k, v in os.environ.items() if not k.startswith("APN_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["apps", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own checks")
    ap.add_argument("--capture-expected", action="store_true",
                    help="print a fresh expected-value table")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.capture_expected):
        ap.error("one of --workload, --self-test, --capture-expected is needed")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src; "
            "run from the root of a full source checkout")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    env = child_env()
    if args.capture_expected:
        return subprocess.run([BINARY, "--capture-expected"], env=env).returncode
    if args.self_test:
        return subprocess.run([BINARY, "--self-test", "--expected", EXPECTED],
                              env=env).returncode

    stamp = ["--commit", commit(), "--source", source_digest()]
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [BINARY, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", EXPECTED] + stamp
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(BUILD, f"trace-{w}-{args.seed}.json")]
        sys.stdout.flush()
        rc = subprocess.run(cmd, env=env).returncode
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
