#!/usr/bin/env python3
"""Sherlock pipeline benchmark.

Builds the benchmark harness and the sherlockc daemon from the sources of
this checkout, runs one workload and prints, as the last line of stdout,
one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of the checkout. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones (see
perfbench/README.md). The exit code is non-zero when any output is wrong.
"""
import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper-sweep", "small-kernels", "serve-zipf", "fault-guarded")
RUN_TIMEOUT_S = 170

# Per-layer metrics the serve-zipf harness measures; the offline workloads
# measure every per-layer metric outside serve.*.
SERVE_LAYER_METRICS = {
    "workloads.build_ms", "ir.parse_dag_ms", "ir.canonical_form_ms",
    "mapping.map_ms", "mapping.codegen_ms", "verify.check_ms", "mapping.insts",
    "failed_frac",
}
# Values that must repeat exactly for a given workload and seed.
DETERMINISTIC = (
    "program_insts", "model_latency_us", "model_energy_uj", "model_p_app",
    "corrupt_lane_frac", "mapping.insts", "sim.insts",
    "serve.replay_direct_share", "serve.replay_canonical_share",
    "serve.replay_cold_share",
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no Sherlock sources under {ROOT}; nothing to measure")
        sys.exit(2)
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in ("Release", "RelWithDebInfo"):
        log(f"perfbench: refusing to time a '{build_type}' build")
        sys.exit(3)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
         "--target", *targets],
        check=True, stdout=sys.stderr)


def pinned_env():
    """The harness's environment: no inherited SHERLOCK_* knob can change
    what is timed. Verification is on and the thread pool has one thread
    (the daemon gets its worker count on the command line)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHERLOCK_")}
    env["SHERLOCK_VERIFY"] = "1"
    env["SHERLOCK_THREADS"] = "1"
    return env


def fixed_layout():
    """Runs in the harness process before exec: turns off address-space
    randomization for it and for the daemon it starts, so that code and
    heap placement are the same in every run."""
    ADDR_NO_RANDOMIZE = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def baseline_configs():
    table2 = json.loads((ROOT / "BENCH_table2.json").read_text())["configs"]
    mesh = json.loads((ROOT / "BENCH_7.json").read_text())["configs"]
    by_table2 = {(c["workload"], c["tech"], c["array_dim"], c["strategy"],
                  c["mra"]): c for c in table2}
    by_mesh = {(c["workload"], c["grid"], c["array_dim"]): c for c in mesh}
    return by_table2, by_mesh


def cross_check(models):
    """Modeled latency and energy of the paper-sweep configs that the
    checked-in BENCH_table2.json / BENCH_7.json also cover must be equal
    to them, bit for bit. Returns the list of mismatches."""
    by_table2, by_mesh = baseline_configs()
    problems = []
    for m in models:
        refs = []
        if m["grid"] == "1x1":
            key = (m["workload"], m["tech"], m["array_dim"], m["strategy"], m["mra"])
            if key in by_table2:
                refs.append(("BENCH_table2.json", by_table2[key]))
        key = (m["workload"], m["grid"], m["array_dim"])
        if m["tech"] == "ReRAM" and m["strategy"] == "opt" and m["mra"] == 2 \
                and key in by_mesh:
            refs.append(("BENCH_7.json", by_mesh[key]))
        if not refs:
            problems.append(f"no checked-in baseline covers {m}")
        for name, ref in refs:
            for field in ("latency_ns", "energy_pj"):
                if ref[field] != m[field]:
                    problems.append(
                        f"{name} {m['workload']} {m['strategy']} {m['array_dim']} "
                        f"{m['grid']} mra{m['mra']}: {field} {m[field]!r} != {ref[field]!r}")
    print(f"cross-check: {len(models)} configs against BENCH_table2/BENCH_7, "
          f"{len(problems)} mismatches")
    return problems


def determinism_check(workload, seed, trace, metrics):
    """Deterministic metrics of a (workload, seed) must equal those of any
    earlier run of the same binaries in this checkout."""
    digest = hashlib.sha256()
    for binary in ("perfbench", "tools/sherlockc"):
        digest.update((BUILD / binary).read_bytes())
    path = BUILD / "determinism" / f"{workload}-{seed}-{trace}.json"
    current = {k: metrics[k]["value"] for k in DETERMINISTIC if k in metrics}
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous.get("binaries") == digest.hexdigest():
            return [f"{k}: {v!r} differs from an earlier run's {previous[k]!r}"
                    for k, v in current.items() if k in previous and previous[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"binaries": digest.hexdigest(), **current}))
    return []


def self_test():
    build(["perfbench_selftest"])
    return subprocess.run([str(BUILD / "perfbench_selftest")], env=pinned_env()).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build(["perfbench", "sherlockc"])
    work_dir = BUILD / "run" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--daemon", str(BUILD / "tools" / "sherlockc")]
    # Own process group, so a timeout also takes down the daemon the
    # harness started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True, preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: the harness exceeded its time limit")
        return 1

    models, result = [], None
    for line in out.splitlines():
        if line.startswith("MODEL "):
            models.append(json.loads(line[6:]))
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
        else:
            print(line)
    if result is None:
        log(f"perfbench: the harness exited with {proc.returncode} and no result")
        return 1

    problems = []
    if args.workload == "paper-sweep":
        problems += cross_check(models)
    problems += determinism_check(args.workload, args.seed, args.trace,
                                  result["metrics"])

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    measured = result["metrics"]
    metrics = {}
    for name in names:
        if name in measured:
            metrics[name] = measured[name]
            continue
        exercised = (name in SERVE_LAYER_METRICS if args.workload == "serve-zipf"
                     else not name.startswith("serve."))
        if args.trace and not exercised:
            # The layer does no work on this workload.
            unit = next(m["unit"] for m in spec["per_layer"] if m["name"] == name)
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"metric {name} was not measured")

    for p in problems:
        print(f"FAIL: {p}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    final = {
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]) + len(models),
        "failed": int(result["failed"]) + len(problems),
        "metrics": metrics,
    }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"perfbench: {' '.join(map(str, e.cmd))} failed with {e.returncode}")
        sys.exit(1)
