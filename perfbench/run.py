#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the `ddnn_perf`
harness and the `ddnn` CLI from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), trains the fixture model once per
build, runs the harness and prints its report. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Set-up and training time of the fixture are excluded from every metric.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("eval-batch64", "sim-local-heavy", "served-cloud-heavy")

# The fixture: preset e (6 devices, one edge, cloud; f = 4) trained for 3
# epochs on the default 680-sample split with a fixed seed. It is rebuilt
# whenever the built binaries change, so two commits never share one.
FIXTURE_ARGS = ["--preset", "e", "--devices", "6", "--filters", "4",
                "--epochs", "3", "--seed", "42"]

# The harness must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170

# Environment variables the program reads that would change what it does
# or how much it logs.
SCRUBBED_ENV = ("DDNN_ENGINE", "DDNN_PROFILE", "DDNN_POISON", "DDNN_LOG_LEVEL",
                "DDNN_LOG_TS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message, code):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(code)


def harness_threads(nproc):
    """DDNN_THREADS of the harness: three workers, one core left free for
    the OS and other tenants (all four cores made the batch workloads swing
    by a quarter between runs on a shared 4-core VM). The served roles run
    with 1."""
    return max(1, min(3, nproc - 1))


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(build_dir, jobs):
    """Configure (once) and build the harness and CLI; returns their paths."""
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"cmake configure failed; see {log}", 3)
        cmd = ["cmake", "--build", str(build_dir), "--target", "ddnn_perf",
               "ddnn", "-j", str(jobs)]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
            fail(f"build failed; see {log}", 3)
    return build_dir / "ddnn_perf", build_dir / "ddnn" / "tools" / "ddnn"


def fixture(ddnn, harness, fixture_dir, env):
    """Path of the trained fixture model for these binaries."""
    digest = sha256_files([ddnn, harness])[:16]
    model = fixture_dir / f"model-{digest}.ddnn"
    if model.exists():
        return model
    shutil.rmtree(fixture_dir, ignore_errors=True)
    fixture_dir.mkdir(parents=True)
    tmp = fixture_dir / "training.ddnn"
    with open(fixture_dir / "train.log", "w") as out:
        rc = subprocess.run([str(ddnn), "train", *FIXTURE_ARGS, "--out", str(tmp)],
                            stdout=out, stderr=subprocess.STDOUT, env=env,
                            cwd=fixture_dir).returncode
    if rc != 0:
        fail(f"fixture training failed; see {fixture_dir / 'train.log'}", 3)
    tmp.rename(model)
    return model


def fingerprint(threads):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    else:
        commit = "unknown (not a git checkout)"
    sources = sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*")
                     if p.is_file())
    sources.append(ROOT / "CMakeLists.txt")
    return [f"cpu: {cpu}",
            f"nproc: {os.cpu_count()}",
            f"machine: {platform.machine()} {platform.system()} {platform.release()}",
            f"DDNN_THREADS: {threads}",
            f"commit: {commit}",
            f"source digest (src/, tools/, CMakeLists.txt): {sha256_files(sources)[:16]}"]


def declared_metrics():
    """Metric names BENCHMARK.json declares, by mode (None when absent)."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    data = json.loads(spec.read_text())
    return {0: [m["name"] for m in data["end_to_end"]],
            1: [m["name"] for m in data["per_layer"]]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the harness printed no result line", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    declared = declared_metrics()
    if declared is not None and list(result["metrics"]) != declared[trace]:
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(declared[trace]))}", 5)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    if not ((ROOT / "CMakeLists.txt").is_file()
            and (ROOT / "src" / "CMakeLists.txt").is_file()):
        fail(f"no DDNN source tree at {ROOT} (need CMakeLists.txt and src/)", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else ROOT / target
    threads = harness_threads(os.cpu_count() or 1)
    harness, ddnn = build(build_root / "perfbench", os.cpu_count() or 1)

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(DDNN_THREADS=str(threads), DDNN_RESULTS_DIR="off",
               DDNN_CACHE_DIR="off")
    model = fixture(ddnn, harness, build_root / "perfbench-fixture", env)

    work = build_root / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--model", str(model), "--ddnn", str(ddnn), "--work-dir", str(work)]
    if args.trace:
        traces = build_root / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {HARNESS_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").splitlines()
    for line in fingerprint(threads) + lines[:-1]:
        print(line)
    if proc.returncode != 0 and not (lines and lines[-1].startswith("{")):
        fail(f"{args.workload} failed (exit {proc.returncode})", 1)
    result = check_result(lines[-1] if lines else "", args.trace)
    print(lines[-1])
    sys.exit(proc.returncode if proc.returncode else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
