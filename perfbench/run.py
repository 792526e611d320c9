#!/usr/bin/env python3
"""Build the rfsp benchmark and the `rfsp` binary, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both programs are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` in the checkout). This script then replaces itself with the
benchmark binary, which prints its result as the last line of stdout.
See perfbench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Directories whose contents are build or run output, not source.
SKIP = {".git", "target", ".bench_build", "out"}


def build(env, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's own output must not reach stdout, whose last line is the result.
    done = subprocess.run(cmd + extra, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: building {manifest} failed")


def source_digest():
    """SHA-256 over the program sources, standing in for a commit id when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in SKIP)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build(env, os.path.join(ROOT, "Cargo.toml"), ["-p", "rfsp-cli", "--bin", "rfsp"])
    build(env, os.path.join(HERE, "Cargo.toml"), [])
    bench = os.path.join(target, "release", "rfsp-perfbench")
    facts = {
        "rustc": output(["rustc", "--version"]),
        "commit": output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
    }
    argv = [bench, *sys.argv[1:], "--rfsp", os.path.join(target, "release", "rfsp")]
    # A relative output directory keeps the daemons' socket paths short.
    argv += ["--out", os.path.join("perfbench", "out")]
    for k, v in facts.items():
        argv += ["--build", f"{k}={v}"]
    sys.stdout.flush()
    os.execv(bench, argv)


if __name__ == "__main__":
    main()
