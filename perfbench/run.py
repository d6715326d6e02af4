#!/usr/bin/env python3
"""Build the Twill repository benchmark from source and run it.

    python3 perfbench/run.py --workload compile|simulate|explore \
        --seed N --seconds S --trace 0|1

Run from the repository root. The release build goes to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to standard error, and the
benchmark's own output, ending in its JSON result line, to standard output.
The exit code is non-zero, with no result printed, when the build or the
run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "twill-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
