#!/usr/bin/env python3
"""Build and run the PROTEST benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <analyze_large|dft_loop|serve_mix|all> \
        --seed <n> --seconds <s> --trace <0|1>

`all` runs the three workloads one after the other, one process each.

Builds the `perfbench` Cargo package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it, stamps the result
with the environment, adds the lines-of-code counters to traced runs, and
keeps a copy of the report under `perfbench/results/`. The last line of
standard output is the benchmark's JSON result.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The crates whose `src` trees are counted for the `loc.<crate>` metrics.
# A fixed list keeps the traced run's metric set fixed; a crate that no
# longer exists counts 0 lines.
LOC_CRATES = ["telemetry", "netlist", "bdd", "sim", "core", "circuits", "tpg", "serve", "bench"]
WORKLOADS = ["analyze_large", "dft_loop", "serve_mix"]
# The child must finish well inside the benchmark's 180-second limit.
CHILD_TIMEOUT_S = 170


def code_lines(path):
    """Non-blank lines of a Rust file outside `//` and `/* */` comments."""
    count = 0
    in_block = False
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        s = line.strip()
        if in_block:
            if "*/" in s:
                in_block = False
                s = s.split("*/", 1)[1].strip()
            else:
                continue
        if s.startswith("/*"):
            if "*/" not in s:
                in_block = True
            continue
        if s and not s.startswith("//"):
            count += 1
    return count


def loc_per_crate():
    return {
        name: sum(code_lines(p) for p in sorted((ROOT / "crates" / name / "src").rglob("*.rs")))
        for name in LOC_CRATES
    }


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for pattern in ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                    "src/**/*.rs", "vendor/**/*.rs", "perfbench/**/*.rs"):
        for p in sorted(ROOT.glob(pattern)):
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def run_workload(exe, args):
    """Runs one workload process; returns its report lines and result, or
    None after printing why it failed."""
    try:
        run = subprocess.run([str(exe), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the benchmark ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"error: the benchmark exited with {run.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    report = [f"# source = {source_id()}", f"# rustc = {rustc_version()}", *lines[:-1]]
    if flag(args, "--trace") == "1":
        for name, n in loc_per_crate().items():
            result["metrics"][f"loc.{name}"] = {"value": n, "unit": "lines"}
            report.append(f"loc.{name} = {n} lines")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}-trace{flag(args, '--trace')}"
    (out_dir / f"{name}.txt").write_text("\n".join(report + [json.dumps(result)]) + "\n")
    return report, result


def main():
    args = sys.argv[1:]
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    exe = target / "release" / "protest-perfbench"

    if flag(args, "--workload") != "all":
        outcome = run_workload(exe, args)
        if outcome is None:
            return 1
        report, result = outcome
        print("\n".join(report))
        print(json.dumps(result))
        return 0

    # `--workload all`: one process per workload, then every metric of
    # every workload in one table and one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    i = args.index("--workload") + 1
    for workload in WORKLOADS:
        outcome = run_workload(exe, args[:i] + [workload] + args[i + 1:])
        if outcome is None:
            return 1
        report, result = outcome
        print(f"## {workload}")
        print("\n".join(report))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
