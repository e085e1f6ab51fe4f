#!/usr/bin/env python3
"""Signoff benchmark entry point: builds the benchmark, then runs one workload.

    python3 perfbench/run.py --workload edt_core --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds perfbench/ (which
compiles the library from src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the benchmark program. Its last
line of standard output is the result JSON. With --trace 1 the spans of the
traced run are written to <build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("edt_core", "soc_broadcast", "atpg_redundant", "volume_diag")
# A run is expected to end within 180 s; the benchmark needs far less.
RUN_TIMEOUT_S = 170


def source_id(root: Path) -> str:
    """Commit id when run in a git checkout, else a hash of the sources."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, check=True)
            return "git-" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "src-sha256-" + digest.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> Path:
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(min(4, os.cpu_count() or 1))
    # Build logs go to stderr: stdout ends with the result line. Once
    # configured, the build re-runs cmake itself when a build file changes.
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir

    try:
        program = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--source-id", source_id(root)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the program and waits for it before raising.
        print(f"perfbench: benchmark exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
