#!/usr/bin/env python3
"""Build the referee benchmark from this checkout and run one workload.

Usage (from the root of the checkout):

    python3 refbench/run.py --workload kdeg-uniform --seed 1 --seconds 10 --trace 0

The first run configures and builds the library, refereectl and the
refbench driver (Release) into the build directory: $CARGO_TARGET_DIR when
set, else .bench_build. Later runs rebuild only what changed. The build log
goes to <build>/build.log, so standard output carries only the driver's
report, whose last line is the JSON result. --smoke runs tiny sizes.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["kdeg-uniform", "campaign-sweep", "file-tree", "service-mix"]
# What the source digest covers: everything that is compiled into the run.
DIGEST_PATHS = ["CMakeLists.txt", "cmake", "src", "tools", "refbench"]


def source_digest():
    digest = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir):
    """Configure once, then build incrementally; True on success."""
    log_path = build_dir / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "refbench", "refereectl"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                break
        else:
            return True
    tail = log_path.read_text(errors="replace").splitlines()[-20:]
    print("refbench: build failed; end of %s:\n%s" % (log_path, "\n".join(tail)),
          file=sys.stderr)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        print("refbench: %s holds no referee sources to build" % ROOT, file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    if not build(build_dir):
        return 2

    command = [str(build_dir / "refbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--refereectl", str(build_dir / "referee" / "tools" / "refereectl"),
               "--work-dir", str(build_dir / "run" / args.workload),
               "--commit", git_commit(),
               "--source-digest", source_digest()]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
