#!/usr/bin/env python3
"""Build privmem's benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The Go build cache, temporary files and
the binary all go under .bench_build/ in the checkout, so the benchmark
reads and writes nothing outside it. Arguments are passed through to the
benchmark binary (see main.go), which replaces this process.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def main():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOWORK"] = "off"
    env["GOTOOLCHAIN"] = "local"
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
