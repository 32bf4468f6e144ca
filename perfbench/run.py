#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` in release mode against the library crates under
`crates/` (into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs the
binary once per workload, each in a child process that runs only that
workload. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--workload all` the
four workloads run one after another and the metrics are keyed
`<workload>.<metric>`. Exits non-zero, printing no result, when the build or
a run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ["edt-mesh", "bfs-mesh", "ldd-mesh-digest", "journal-replay"]
RUN_TIMEOUT_S = 170


def revision():
    """The git revision inside a work tree, else a digest of the sources
    the benchmark builds, so every result names its code."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return "git-" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_child(cmd, env):
    """Runs one workload, echoing its output; returns (status, last line)."""
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, ""
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode, ""
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return 0, lines[-1]


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    rev = revision()

    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    if workload != "all":
        status, last = run_child([binary, *args, "--rev", rev], env)
        if status == 0:
            print(last)
        return status

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [binary, *args, "--rev", rev]
        cmd[cmd.index("--workload") + 1] = workload
        status, last = run_child(cmd, env)
        if status != 0:
            return status
        result = json.loads(last)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
