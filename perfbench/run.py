#!/usr/bin/env python3
"""Build and run the perfbench benchmark from source.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay-figure4 --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the binary, and everything the benchmark writes
stay under .bench_build/ in the checkout. The script exits with the
benchmark's own exit code, or non-zero without printing a result when the
build fails or a run overstays its time limit.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 175


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    scratch = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    for d in (scratch, tmp):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })

    binary = os.path.join(scratch, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed; the benchmark needs the repository's sources", file=sys.stderr)
        return 2
    # A cold build leaves the build cache's writes in flight; flush them so
    # they do not slow the journal's fsyncs in the run that follows.
    os.sync()

    try:
        ran = subprocess.run([binary, "-root", root] + sys.argv[1:], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 124
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
