#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and the perfbench program from
source, runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 22 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/; span logs
of traced runs go to .bench_out/. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Every
line before it is informational (host and source fingerprint, sample counts,
outcome digest, check results).
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec(path):
    """BENCHMARK.json, with its metric names and units checked."""
    with open(path) as f:
        spec = json.load(f)
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if not NAME_RE.match(m["name"]) or m["name"] in seen:
                raise ValueError(f"bad or repeated metric name {m['name']!r}")
            if not UNIT_RE.match(m["unit"]):
                raise ValueError(f"bad unit {m['unit']!r} for {m['name']}")
            if m["better"] not in ("lower", "higher"):
                raise ValueError(f"bad direction for {m['name']}")
            seen.add(m["name"])
    return spec


def validate_result(result, expected):
    """Errors in a result line against the expected {name: unit} metrics."""
    errors = []
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"metrics missing {missing} extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            errors.append(f"{name}: want unit {unit!r}, got {m!r}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{name}: value {m['value']!r} is not a finite number")
    return errors


def source_fingerprint(root):
    """git sha when the tree is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if sha.returncode == 0:
                return "git " + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256 " + h.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in ("BENCHMARK.json", "perfbench/CMakeLists.txt", "src/CMakeLists.txt",
                 "scenarios"):
        if not os.path.exists(os.path.join(root, need)):
            die(f"{need} not found: run from the root of a repository checkout")
    spec = load_spec(os.path.join(root, "BENCHMARK.json"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(root, os.path.join(root, build_dir))
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}", 1)
    print(f"source: {source_fingerprint(root)}", flush=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        die(f"no result line (exit code {proc.returncode})", 1)
    errors = validate_result(result, expected)
    if errors:
        die("; ".join(errors), 1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
