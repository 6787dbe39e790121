#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the benchmark program)
into the directory named by $CARGO_TARGET_DIR, default .bench_build.
Later calls rebuild only when a file under src/ or perfbench/ changed, and
the benchmark's own unit checks run after every build.  Build output goes
to stderr, so the last line of stdout is the benchmark's result object.
`--workload all` runs every workload in turn and ends with one combined
object whose metric names carry a "<workload>/" prefix.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["replay_static_ui", "replay_feed_scroll", "replay_game",
             "replay_video", "dst", "campaign"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_sha(root):
    """SHA-256 over every file of src/ and perfbench/ (path and content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "none"
    res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "none"


def build(root, build_dir, sources):
    """Configures and builds once per source state (stamped by `sources`)."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    stamp = build_dir / "perfbench.source.sha256"
    binaries = [build_dir / "perfbench", build_dir / "perfbench_selftest"]
    if (stamp.is_file() and stamp.read_text() == sources
            and all(b.is_file() for b in binaries)):
        return
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
            (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("the benchmark's own unit checks failed")
    stamp.write_text(sources)


def run_one(binary, args, workload, build_dir, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(build_dir / "work")]
    if not capture:
        return subprocess.run(cmd).returncode, None
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(res.stdout)
    lines = res.stdout.strip().splitlines()
    return res.returncode, json.loads(lines[-1]) if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    sources = source_sha(root)
    build(root, build_dir, sources)

    os.environ["PERFBENCH_GIT_SHA"] = git_sha(root)
    os.environ["PERFBENCH_SOURCE_SHA"] = sources
    binary = build_dir / "perfbench"
    if args.workload != "all":
        code, _ = run_one(binary, args, args.workload, build_dir, False)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result = run_one(binary, args, workload, build_dir, True)
        if code != 0 or result is None:
            fail(f"workload {workload} exited with {code}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
