#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tree-mixed --seed 1 --seconds 10 --trace 0

It builds the Go program in perfbench/ from source, then runs it with the
given arguments. The program prints its metrics and, as the last line of
standard output, one JSON result. Build output goes to standard error.
Everything the build and the run write stays under .bench_build/ in the
current directory: the Go build cache, the binary and the traced run's
spans.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": out,
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "XDG_CACHE_HOME": os.path.join(out, "cache"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary, "--span-dir", out] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the program and waited for it.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
