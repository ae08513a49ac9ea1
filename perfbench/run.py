#!/usr/bin/env python3
"""Build and run the wall-clock trading benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench package in release mode (into $CARGO_TARGET_DIR,
default .bench_build) and runs it from the repository root. Spill files and
span dumps stay under .perfbench_out/ in the checkout. The last line of
standard output is the JSON result; build output goes to standard error.
The benchmark binary runs pinned to one CPU.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ("crates", "perfbench")


def commit():
    """The git commit, or a digest of the sources in a plain checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in SOURCES:
        files += [p for p in (ROOT / top).rglob("*") if p.suffix in (".rs", ".toml")]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-sha256-" + h.hexdigest()[:16]


def main():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: the repository crates are missing", file=sys.stderr)
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(ROOT / "perfbench" / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        return 1
    tmp = ROOT / ".perfbench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # One qt-par worker per node thread: every node already runs on its own
    # thread, and nested fork-join inside 16-300 of them oversubscribes a
    # small host (on 2 cores it costs flat16_closed about a fifth of its
    # throughput and doubles tiered256_open's median latency).
    env.update(TMPDIR=str(tmp), PERFBENCH_COMMIT=commit(), QT_THREADS="1")
    # The measured program runs on one CPU. On a shared two-vCPU VM, node
    # threads that wake each other across vCPUs make throughput swing with
    # the neighbours' load (135 to 222 sessions/s back to back on the
    # 256-node tree); on one CPU the swing follows the host's speed, which
    # the in-run probe measures and scales out.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        run = subprocess.run(
            [str(target / "release" / "qt-perfbench")] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            check=False,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
