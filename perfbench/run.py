#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke      # every workload at tiny sizes, both modes

Run from the root of a checkout. The first run builds the library and the
measuring program from source into .bench_build/ (one fixed flavour: Release,
portable); later runs reuse that build. The measuring program prints a
provenance stamp and human-readable lines; its last line is the JSON result
with bare metric values, which this script completes with the units
BENCHMARK.json declares and prints as the last line of its own output.
A traced run also writes its spans to .bench_build/traces/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ["au-async-stabilize", "au-sync-1m", "mis-le-faults", "service-mix"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "engine.hpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD)],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the JSON result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)


def source_id():
    """The git commit when the checkout is a repository, else a digest of the
    library sources."""
    if not (ROOT / ".git").exists():
        return src_digest()
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0 and proc.stdout.strip():
            return "git " + proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return src_digest()


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256 " + digest.hexdigest()[:16]


def complete(result, trace):
    """The program's result with each metric value given the unit
    BENCHMARK.json declares for it. Every declared metric of the run's mode
    appears (a layer the workload does not exercise reads 0) and nothing
    else; None if an end-to-end metric is missing or an undeclared one is
    present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    values = result.get("metrics") if isinstance(result, dict) else None
    if not isinstance(values, dict):
        return None
    undeclared = set(values) - {m["name"] for m in declared}
    if undeclared:
        log(f"undeclared metrics: {sorted(undeclared)}")
        return None
    metrics = {}
    for m in declared:
        if m["name"] not in values and not trace:
            log(f"no value for {m['name']}")
            return None
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return {**result, "metrics": metrics}


def run_one(workload, seed, seconds, trace, smoke=False):
    """Runs the measuring program once; returns (exit code, stdout lines
    before the result, completed result or None)."""
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    scratch = BUILD / "scratch" / f"{workload}-{seed}-{trace}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch), "--source", source_id()]
    if trace:
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = complete(json.loads(lines[-1]), trace)
        except json.JSONDecodeError:
            result = None
    if result is not None:
        lines = lines[:-1]
    return proc.returncode, lines, result


def valid(result):
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    return result["attempted"] >= 1 and all(
        isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
        for m in result["metrics"].values())


def smoke():
    """Every workload at tiny sizes, untraced and traced: all checks must pass
    and each run's metrics must fit what BENCHMARK.json declares."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_one(workload, 7, 0.5, trace, smoke=True)
            good = code == 0 and valid(result) and result["correct"] \
                and result["failed"] == 0
            log(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}")
            if not good:
                print("\n".join(lines), file=sys.stderr)
            ok = ok and good
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    build()
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    code, lines, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or not valid(result):
        print("\n".join(lines), file=sys.stderr)
        log(f"measuring program failed (exit {code})")
        return 1
    for name, m in sorted(result["metrics"].items()):
        lines.append(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
