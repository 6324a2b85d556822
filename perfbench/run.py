"""lecplast benchmark: one workload, end-to-end or traced, printed as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload transport_verify --seed 0 --seconds 25 --trace 0

Starts the measuring process (``worker.py``) and, in an untraced run,
``SETUP_RUNS - 1`` set-up-only processes, one at each of the measuring
process's evenly spaced pauses, so that the set-up samples span the whole
run instead of its first seconds.  Every process imports ``lecplast`` from
``src/`` with the BLAS thread count pinned.  ``setup_s`` is the median of
the measuring process's set-up and those of the set-up-only processes.
Prints the run record in readable lines, then the result as the last line.
Exits non-zero, printing no result, when ``src/lecplast`` is missing or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracing  # noqa: E402

#: Fixed BLAS thread count: never above nproc, and free of the noise that
#: threads competing with other tenants add on a small shared machine.
BLAS_THREADS = 1
SETUP_RUNS = 11
WORKER_TIMEOUT_S = 160
OUT_DIR = ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "descriptors_per_s": "1/s",
    "latency_s.p50": "s",
    "peak_rss_mb": "MB",
}


def worker_command(args, root: str, *extra: str) -> tuple[list, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, OUT_DIR), *extra,
           "--spawned-at", repr(time.monotonic())]
    return cmd, env


def setup_only(args, root: str) -> float:
    cmd, env = worker_command(args, root, "--setup-only")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, root: str) -> dict:
    """Runs the measuring process, timing a set-up at each of its pauses."""
    pauses = 0 if args.trace else SETUP_RUNS - 1
    cmd, env = worker_command(args, root, "--pauses", str(pauses))
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    setups, last = [], ""
    try:
        for line in proc.stdout:
            if line.strip() == "setup":
                setups.append(setup_only(args, root))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or len(setups) != pauses:
        raise SystemExit(f"worker exited with {code} after {len(setups)} of {pauses} pauses")
    record = json.loads(last)
    record["setups"] = [record["setup_s"]] + setups
    record["setup_s"] = statistics.median(record["setups"])
    return record


def steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests, summed over this machine's CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def describe(record: dict, trace: int) -> list[str]:
    m, c = record["machine"], record["corpus"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {trace}",
        f"machine: nproc {m['nproc']}, cpu {m['cpu']}, python {m['python']}, "
        f"numpy {m['numpy']}, {m['blas']}, blas threads {m['blas_threads']}",
        f"corpus: {c['descriptors']} descriptors in {c['rounds']} rounds of "
        f"{len(c['round'])}; family shares {json.dumps(c['family_shares'])}",
        f"setup_s {record['setup_s']:.4f} s (median of {len(record['setups'])} set-ups)",
        f"steal {record['steal_s']:.2f} CPU s over the run's {record['wall_s']:.1f} s "
        f"(time the hypervisor ran other guests, all CPUs)",
    ]
    if trace:
        lines.append(f"traced: {record['samples']} runs per pass, {record['spans']} spans")
        for name, unit, moves in tracing.LAYER_METRICS:
            lines.append(f"  {name} {record['metrics'][name]:.6g} {unit}  [moves {moves}]")
        lines.append("family x command: runs, mean wall s, mean self s per layer")
        for row in record["breakdown"]:
            layers = " ".join(f"{l} {row[f'{l}_s']:.4f}" for l in tracing.LAYERS)
            lines.append(f"  {row['family']} | {row['command']}: {row['runs']}, "
                         f"{row['wall_s']:.4f}; {layers}")
        for name, (first, second) in record["unstable_counts"].items():
            lines.append(f"COUNT DIFFERS between traced passes: {name} {first} vs {second}")
    else:
        lines += [
            f"descriptors_per_s {record['descriptors_per_s']:.4f} 1/s "
            f"(median over {record['rounds']} rounds, busy {record['busy_s']:.2f} s)",
            f"latency_s.p50 {record['latency_s.p50']:.5f} s ({record['samples']} samples)",
            (f"latency_s.p90 {record['latency_s.p90']:.5f} s ({record['samples']} samples)"
             if "latency_s.p90" in record else
             f"latency_s.p90 not reported: {record['samples']} samples, needs 100"),
        ]
    failed = len(record["failures"])
    lines.append(f"failed_frac {failed / record['attempted']:.4f} "
                 f"({failed} of {record['attempted']} runs)")
    lines += [f"  FAILED input {f['input']} ({f['stratum']}): {f['reason']}"
              for f in record["failures"]]
    lines.append(f"peak_rss_mb {record['peak_rss_mb']:.1f} MB")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lecplast", "__init__.py")):
        print("perfbench: run from a checkout root holding src/lecplast", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    steal, start = steal_s(), time.monotonic()
    try:
        record = measure(args, root)
    finally:
        shutil.rmtree(corpus.work_dir(os.path.join(root, OUT_DIR), args.workload, args.seed),
                      ignore_errors=True)
    record["steal_s"] = steal_s() - steal
    record["wall_s"] = time.monotonic() - start
    if args.trace:
        metrics = {name: {"value": record["metrics"][name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": record[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = not record["failures"] and not record.get("unstable_counts")
    path = os.path.join(root, OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.record.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("\n".join(describe(record, args.trace)))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": len(record["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
