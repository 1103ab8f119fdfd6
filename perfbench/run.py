#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

It builds `perfbench/` (a Cargo package of its own) in release mode,
runs one measurement process, and relays its output. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`, exactly as `BENCHMARK.json` lists them). Any build or
run failure exits non-zero without printing that line.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def flag(name):
    args = sys.argv[1:]
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("building the benchmark failed")
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, *sys.argv[1:], "--spawn-unix-ns", str(time.time_ns())]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran longer than {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"the benchmark printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"the benchmark's last line is not JSON (exit {run.returncode})")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = flag("--trace") == "1"
    listed = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = f"{flag('--workload')}-trace{int(traced)}.txt"
    with open(os.path.join(HERE, "out", name), "w") as f:
        f.write(run.stdout)
    print(run.stdout, end="")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
