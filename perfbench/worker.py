"""One workload in one process: set-up, timed closed loop, outcome gate, traces.

Started by ``run.py`` with the BLAS thread count already pinned in the
environment.  Prints one JSON object as its last line of standard output.

* Set-up: import ``lecplast`` from ``src/`` of the checkout, write the
  seeded corpus into the run's working directory (see
  ``corpus.write_corpus``) and run one warm-up item (the first stratum,
  drawn from a separate stream so that it never repeats a measured input).
  ``setup_s`` runs from the parent's spawn time to the end of the warm-up.
* Untraced run: whole rounds, one caller, each ``cli.main`` call sent
  after the previous returns, until the busy time reaches ``--seconds``.
  With ``--pauses N`` the loop stops N times, at evenly spaced busy times,
  between two calls: it prints ``setup`` and waits for ``go`` on standard
  input while ``run.py`` times one more set-up, so that the set-up samples
  span the whole run.
* Traced run: a fixed number of rounds, twice untraced and twice traced, so
  that the counts repeat exactly and the overhead of tracing shows.

Each call's outcome is compared with the generator's expectation; one item
per round is replayed and its bytes compared.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import corpus as corpus_mod
import tracing


@dataclass
class Outcome:
    exit: int | None
    stderr: str
    report: bytes | None
    error: str | None = None


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)
    report_bytes: int = 0
    samples: int = 0
    checks_failed: int = 0
    transport_witnesses_verified: int = 0

    def harness(self) -> dict:
        return {"report_bytes": self.report_bytes, "samples": self.samples,
                "checks_failed": self.checks_failed,
                "transport_witnesses_verified": self.transport_witnesses_verified}


class Runner:
    def __init__(self, cli, seed: int, workdir: str):
        self.cli = cli
        self.seed = seed
        self.output = os.path.join(workdir, "report.json")

    def call(self, item) -> tuple[float, Outcome]:
        argv = [item.stratum.command, "--input", item.path, "--output", self.output,
                "--seed", str(self.seed * 100_000 + item.index), *item.stratum.flags]
        if os.path.exists(self.output):
            os.remove(self.output)
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an uncaught exception is a failed run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        report = None
        if os.path.exists(self.output):
            with open(self.output, "rb") as handle:
                report = handle.read()
        return elapsed, Outcome(code, err.getvalue() + out.getvalue(), report, error)


def _window(stratum) -> int:
    flags = dict(zip(stratum.flags, stratum.flags[1:]))
    return int(flags.get("--window", 16))


def mismatch(item, got: Outcome) -> str | None:
    """Why an outcome differs from the generator's expectation, or None."""
    exp = item.expected
    if got.error:
        return f"uncaught {got.error}"
    if got.exit != exp["exit"]:
        return f"exit {got.exit}, expected {exp['exit']}"
    if exp["exit"] == 1:
        lines = got.stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected a one-line error message, got {got.stderr!r}"
        if got.report is not None:
            return "a rejected input wrote a report"
        return None
    if got.report is None:
        return "no report written"
    report = json.loads(got.report)
    verdict = report["verdict"]
    if verdict["plastic"] != exp["plastic"]:
        return f"plastic={verdict['plastic']}"
    if exp["plastic"]:
        if verdict.get("tau") != exp["tau"]:
            return f"tau {verdict.get('tau')}, expected {exp['tau']}"
    else:
        cert = verdict["certificate"]
        if (cert["rule"], cert["r"], cert["R"]) != (exp["rule"], exp["r"], exp["R"]):
            return f"certificate {cert['rule']} [{cert['r']}, {cert['R']}]"
    witness = report.get("witness")
    if exp["witness"] is None:
        if witness is not None:
            return "unexpected witness"
    elif witness is None or witness["type"] != exp["witness"]:
        return f"witness {witness and witness['type']}, expected {exp['witness']}"
    elif witness["window"] != _window(item.stratum):
        return f"witness window {witness['window']}"
    elif exp["witness"] == "transport" and ("multiplier_tables" in witness) != exp["full"]:
        return "multiplier tables present/absent against --full"
    checks = report.get("checks")
    if "checks" not in exp:
        return "unexpected checks" if checks is not None else None
    names = [c["name"] for c in checks or ()]
    if names != exp["checks"]:
        return f"checks {names}"
    failed = [c["name"] for c in checks if not c["pass"]]
    return f"failing checks {failed}" if failed else None


def run_item(runner: Runner, item, tally: Tally, replay: bool) -> float:
    elapsed, got = runner.call(item)
    tally.attempted += 1
    reason = mismatch(item, got)
    if reason is None and replay:
        again = runner.call(item)[1]
        if (again.exit, again.stderr, again.report) != (got.exit, got.stderr, got.report):
            reason = "replay differs byte for byte"
    if reason is not None:
        tally.failures.append({"input": item.index, "stratum": item.stratum.label,
                               "reason": reason})
    if got.report is not None:
        tally.report_bytes += len(got.report)
        checks = json.loads(got.report).get("checks", ())
        tally.samples += sum(c["samples"] for c in checks)
        tally.checks_failed += sum(not c["pass"] for c in checks)
        if item.expected.get("witness") == "transport" and checks:
            tally.transport_witnesses_verified += 1
    return elapsed


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pause() -> None:
    print("setup", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("run.py closed the set-up channel")


def timed_run(runner, rounds, seconds: float, pauses: int = 0) -> dict:
    tally = Tally()
    latencies, rates, busy, r = [], [], 0.0, 0
    marks = [seconds * (k + 0.5) / pauses for k in range(pauses)]
    by_stratum: dict[str, list] = {}
    while busy < seconds:
        batch = rounds[r % len(rounds)]
        spent = 0.0
        for j, item in enumerate(batch):
            elapsed = run_item(runner, item, tally, replay=(j == r % len(batch)))
            latencies.append(elapsed)
            by_stratum.setdefault(item.stratum.label, []).append(elapsed)
            spent += elapsed
            while marks and busy + spent >= marks[0]:
                marks.pop(0)
                pause()
        rates.append(len(batch) / spent)
        busy += spent
        r += 1
    result = {
        "tally": tally,
        "rounds": r,
        "busy_s": busy,
        "descriptors_per_s": statistics.median(rates),
        "round_rates": rates,
        "latency_s.p50": statistics.median(latencies),
        "samples": len(latencies),
        "stratum_p50_s": {k: statistics.median(v) for k, v in by_stratum.items()},
    }
    if len(latencies) >= 100:
        result["latency_s.p90"] = percentile(latencies, 90)
    return result


def traced_run(lp, runner, rounds, out_prefix: str) -> dict:
    """Passes untraced, traced, untraced, traced over the same items.

    Alternating spreads drift in the machine over both sides of the
    overhead ratio.  Times are averaged over the two traced passes; every
    count must agree exactly between them.
    """
    items = [item for batch in rounds for item in batch]
    busy = {False: 0.0, True: 0.0}
    passes, tallies = [], []
    for traced in (False, True, False, True):
        tracer, tally = tracing.Tracer(), Tally()
        tallies.append(tally)
        if traced:
            tracer.install(lp)
        try:
            for item in items:
                tracer.context = (item.index, item.stratum.family,
                                  " ".join((item.stratum.command,) + item.stratum.flags))
                busy[traced] += run_item(runner, item, tally, replay=False)
        finally:
            tracer.uninstall()
        if traced:
            passes.append((tracer, tracing.derive(tracer.spans, tally.harness())))
    (tracer, metrics), (_, second) = passes
    unstable = {k: (v, second[k]) for k, v in metrics.items()
                if tracing.is_exact(k) and v != second[k]}
    for k in metrics:
        if k.endswith("_s"):
            metrics[k] = (metrics[k] + second[k]) / 2
    metrics["trace_overhead_frac"] = busy[True] / busy[False] - 1.0
    tracer.dump(out_prefix + ".spans.jsonl")
    return {
        "metrics": metrics,
        "unstable_counts": unstable,
        "breakdown": tracing.breakdown(tracer.spans),
        "attempted": sum(t.attempted for t in tallies),
        "failures": [f for t in tallies for f in t.failures],
        "samples": len(items),
        "spans": len(tracer.spans),
    }


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--out", required=True, help="directory for records and working files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pauses", type=int, default=0,
                        help="set-up pauses spread over an untraced run")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lecplast as lp
    import lecplast.cli

    if os.path.commonpath([os.path.abspath(lp.__file__), src]) != src:
        print(f"lecplast imported from {lp.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = corpus_mod.WORKLOADS[args.workload]
    # Shared by every process of one run and removed by run.py when the run
    # ends; each later set-up rewrites the same files in place.
    workdir = corpus_mod.work_dir(args.out, workload.name, args.seed)
    rounds = corpus_mod.write_corpus(workload, args.seed, os.path.join(workdir, "inputs"))
    warm = corpus_mod.write_corpus(workload, args.seed, os.path.join(workdir, "warm-up"),
                                   rounds=1, stream="warm-up")[0][0]
    runner = Runner(lp.cli, args.seed, workdir)
    warm_tally = Tally()
    run_item(runner, warm, warm_tally, replay=False)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "machine": machine(),
        "corpus": {
            "descriptors": sum(len(b) for b in rounds),
            "rounds": len(rounds),
            "round": [s.label for s in workload.strata],
            "family_shares": corpus_mod.family_shares(workload),
        },
    }
    if args.trace:
        prefix = os.path.join(args.out, f"{workload.name}-seed{args.seed}")
        result = traced_run(lp, runner, rounds[: workload.traced_rounds], prefix)
        record.update(result)
        record["corpus"]["traced_rounds"] = workload.traced_rounds
    else:
        result = timed_run(runner, rounds, args.seconds, args.pauses)
        tally = result.pop("tally")
        record.update(result, attempted=tally.attempted, failures=tally.failures)
    record["failures"] = warm_tally.failures + record["failures"]
    record["attempted"] += warm_tally.attempted
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
