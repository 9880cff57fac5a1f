#!/usr/bin/env python3
"""Build and run the served-sketch benchmark.

    python3 servebench/run.py --workload <ingest-churn|query-mix|multi-tenant> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `graph-sketch` server and the
`servebench` load generator in release mode (offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the load
generator, whose last stdout line is the result JSON. Build output goes
to stderr. Exits non-zero without a result when the repository sources
are missing or the build or run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Longest the load generator may run before it is killed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def capture(cmd, cwd, env=None):
    try:
        out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_stamp(root):
    # Never let git look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    sha = capture(["git", "rev-parse", "HEAD"], root, env)
    if sha is None:
        return "none"
    dirty = capture(["git", "status", "--porcelain", "--untracked-files=no"], root, env)
    return sha + ("-dirty" if dirty else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    for need in ["Cargo.toml", "crates/cli/Cargo.toml", "crates/serve/Cargo.toml"]:
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"repository source {need} is missing; nothing to build")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "gs-cli", "--bin", "graph-sketch"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))

    work = os.path.join(target, "servebench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(target, "release", "graph-sketch"),
        "--work-dir", work,
        "--rustc", capture(["rustc", "--version"], root) or "unknown",
        "--git", git_stamp(root),
    ]
    # Its own process group, so a stop also reaches the server it spawned.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the load generator ran past {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
