#!/usr/bin/env python3
"""Build and run the rflash benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an rflash source tree. Builds the `perfbench`
package (offline, release) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs it with a clean environment: no `RFLASH_*`
knob is passed through, and temporary files (the Helmholtz table cache)
go under `perfbench/out/`. The benchmark's last line of output is its
JSON result; the exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("RFLASH_")}
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    out = os.path.join(HERE, "out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out", out], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
