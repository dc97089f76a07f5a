#!/usr/bin/env python3
"""Build and run the campaign benchmark (perfbench/main.go).

Run from the repository root:

    python3 perfbench/run.py --workload paper-season --seed 7 --seconds 30 --trace 0

Every flag is passed to the Go program. The binary, the Go build cache
and the module cache live under $CARGO_TARGET_DIR (default .bench_build)
in the current directory, so a run reads and writes only inside the
checkout. The script exits non-zero, printing no result, when the build
fails — for instance when the parent module is missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The Go program must finish well inside a run's 180 s allowance.
RUN_TIMEOUT_S = 170


def go_env(build_dir):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOMODCACHE=os.path.join(build_dir, "gomodcache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        # The go command's local telemetry counters live under the user
        # config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    return env


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    env = go_env(build_dir)
    build = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    with subprocess.Popen([binary] + sys.argv[1:], env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
