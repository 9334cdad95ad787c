#!/usr/bin/env python3
"""The wronskit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see workloads.py):

  wronskian-symbolic  118 symbolic Wronskian and transform checks
  rational-linalg     641 determinant, rank, product and binomial-sum checks
  cli-verify          a closed loop of one client running ``python -m wronskit``
                      over five commands, one process after another

Every pass over a workload's inputs runs in a fresh interpreter, so every
cache the program fills is filled again, as it is for a user.  Every
verdict is compared with the known answers in workloads.py.

With ``--trace 0`` it reports the end-to-end metrics, each time as the
upper quartile of its samples over the run (see ``upper_quartile``):
setup_s (fresh-interpreter import plus input generation, taken from the
moment the process is started; one probe after every pass), wall_s (pass
time), latency_p50_ms and latency_p90_ms (over the checks, each taken at
the upper quartile of its latencies over the passes, or over every CLI
invocation of the run) and peak_rss_mb (median per-pass peak resident
memory of the working process).  With
``--trace 1`` it alternates traced and untraced passes and reports the
per-layer metrics (medians over traced passes) and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit status is 1 when any check failed and 2 when
the benchmark could not run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
# every run must end within 180 s; no child may outlive this moment
DEADLINE = time.monotonic() + 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(argv: list[str]) -> dict:
    """Run one child process to completion; report its output, exit status,
    wall time from start to exit and peak resident memory.  A child still
    running at the run's deadline is killed, and the run fails."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started_wall = time.time()
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(max(0.0, DEADLINE - time.monotonic()), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter() - started
    # reaped by wait4 above; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{' '.join(argv)} killed by signal {-proc.returncode}")
    return {"stdout": out.decode(), "stderr": err.decode(), "exit": proc.returncode,
            "started": started_wall, "latency_s": elapsed, "maxrss_kb": usage.ru_maxrss}


def child(*args: str) -> tuple[dict, dict]:
    got = spawn([CHILD, *args])
    if got["exit"] != 0:
        raise BenchError(f"child {' '.join(args)} exited {got['exit']}: {got['stderr'][-2000:]}")
    return json.loads(got["stdout"].strip().splitlines()[-1]), got


def setup_probe(workload: str, seed: int) -> float:
    """One setup_s sample: from starting a fresh interpreter until its inputs are ready."""
    rec, got = child("setup", workload, str(seed))
    return rec["ready"] - got["started"]


class Run:
    """Accumulates the passes of one benchmark run."""

    def __init__(self):
        self.walls = {False: [], True: []}   # traced? -> pass wall times
        self.latencies: list[float] = []     # untraced CLI invocations
        self.check_latencies: list[list[float]] = []  # per untraced pass, indexed like the checks
        self.rss_mb: list[float] = []        # untraced per-pass peaks
        self.layers: list[dict] = []         # per traced pass
        self.attempted = 0
        self.failures: list[str] = []
        self.per_suite: dict[str, int] = {}
        self.missing: set[str] = set()

    def check_pass(self, workload: str, seed: int, pass_index: int, traced: bool) -> None:
        rec, _ = child("pass", workload, str(seed), str(pass_index), "1" if traced else "0")
        self.attempted += rec["attempted"]
        self.failures += rec["failures"]
        self.walls[traced].append(rec["wall_s"])
        if traced:
            self.layers.append(layer_metrics(rec["layers"], rec["cache"], None))
            self.missing.update(rec["missing"])
        else:
            self.check_latencies.append(rec["latencies"])
            self.rss_mb.append(rec["maxrss_kb"] / 1024)

    def cli_pass(self, commands: list[tuple[str, ...]], traced: bool) -> None:
        wall = 0.0
        peak = 0
        stats: dict[str, list] = {}
        cache = [0, 0]
        cli = {"import": [], "overhead": []}
        for argv in commands:
            if traced:
                rec, got = child("cli", *argv)
                exit_code, stdout = rec["exit"], rec["stdout"]
                merge_stats(stats, rec["layers"])
                cache[0] += rec["cache"][0]
                cache[1] += rec["cache"][1]
                cli["import"].append(rec["import_s"])
                cli["overhead"].append(got["latency_s"] - rec["main_s"] - rec["tracing_s"])
                self.missing.update(rec["missing"])
            else:
                got = spawn(["-m", "wronskit", *argv])
                exit_code, stdout = got["exit"], got["stdout"]
                self.latencies.append(got["latency_s"])
                peak = max(peak, got["maxrss_kb"])
            wall += got["latency_s"]
            problems, per_suite = workloads.cli_failures(argv, exit_code, stdout)
            self.attempted += 1
            if problems:
                self.failures.append(f"wronskit {' '.join(argv)}: {'; '.join(problems)}")
            self.per_suite.update(per_suite)
        self.walls[traced].append(wall)
        if traced:
            self.layers.append(layer_metrics(stats, cache, cli))
        else:
            self.rss_mb.append(peak / 1024)


def merge_stats(into: dict[str, list], stats: dict[str, list]) -> None:
    for name, (calls, total, self_s, size) in stats.items():
        row = into.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += calls
        row[1] += total
        row[2] += self_s
        row[3] = max(row[3], size)


def layer_metrics(stats: dict[str, list], cache, cli: dict | None) -> dict[str, float]:
    """One traced pass's per-layer metrics, named as in BENCHMARK.json."""
    def calls(name):
        return stats.get(name, [0])[0]

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    def size(name):
        return stats[name][3] if name in stats else 0

    out = {}
    for name in ("trigring.mul", "trigring.add", "trigring.differentiate", "matrix.det_symbolic",
                 "matrix.det_rational", "matrix.rank", "matrix.matmul", "structured.build",
                 "combinatorics.binomial", "report.finish_report"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["trigring.mul.max_terms"] = size("trigring.mul")
    out["trigring.harmonic_step.calls"] = calls("trigring.harmonic_step")
    hits, lookups = cache
    out["trigring.monomial_derivative.hit_ratio"] = hits / lookups if lookups else 0.0
    out["matrix.det_symbolic.max_order"] = size("matrix.det_symbolic")
    out["matrix.det_rational.max_order"] = size("matrix.det_rational")
    for name in ("structured.det_closed_form", "structured.verify", "combinatorics.binomial_sum",
                 "independence.hankel", "independence.two_by_two", "independence.coordinates",
                 "independence.verify", "cli.plan", "cli.run_checks", "cli.render"):
        out[f"{name}.self_s"] = self_s(name)
    out["cli.import_s"] = statistics.median_low(cli["import"]) if cli else 0.0
    out["cli.process_overhead_s"] = statistics.median_low(cli["overhead"]) if cli else 0.0
    return out


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop.  Shared machines change speed over
    minutes; this gauge, taken between passes, lets two runs' times be read
    against the speed of the machine when each was made."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def upper_quartile(values: list[float]) -> float:
    """The value a quarter of the samples exceed.  The shared host this was
    tuned on alternates, for tens of seconds at a time, between a usual state
    and one about a third faster; a run's median lands in either, depending
    on how its passes fell, while its upper quartile stays in the usual state
    unless that state held for less than a quarter of the run."""
    return percentile(values, 75)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wronskit", "__init__.py")):
        print(f"no wronskit sources under {SRC}", file=sys.stderr)
        return 2
    traced_run = bool(args.trace)
    run = Run()
    try:
        setup = []
        if not traced_run:
            setup_probe(args.workload, args.seed)  # warm-up: compiles bytecode in a fresh checkout
        commands = workloads.cli_commands(args.seed) if args.workload == "cli-verify" else None
        begun = time.perf_counter()
        last = 0.0
        passes = 0
        gauge = []
        # the next pass starts only if it is expected to end inside the window
        while passes < 2 or time.perf_counter() - begun + last <= args.seconds:
            traced = traced_run and passes % 2 == 1
            started = time.perf_counter()
            if commands is not None:
                run.cli_pass(commands, traced)
            else:
                run.check_pass(args.workload, args.seed, passes, traced)
            gauge.append(reference_loop_s())
            if not traced_run:
                # spread over the run like the passes, so both see the same states of the host
                setup.append(setup_probe(args.workload, args.seed))
            last = time.perf_counter() - started
            passes += 1
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    work = len(commands) if commands is not None else len(workloads.checks(args.workload, args.seed))
    failed = len(run.failures)
    for line in run.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "passes": passes,
               "checks_total": work, "attempted": run.attempted, "failed": failed,
               "fail_ratio": failed / run.attempted,
               "pass_wall_s": run.walls[False], "traced_pass_wall_s": run.walls[True],
               "reference_loop_s": statistics.median(gauge)}
    if run.per_suite:
        summary["verify_records_per_suite"] = dict(sorted(run.per_suite.items()))
    if run.missing:
        summary["untraced_targets"] = sorted(run.missing)

    if traced_run:
        # median_low keeps counts whole: it is always one traced pass's value
        metrics = {name: statistics.median_low(p[name] for p in run.layers) for name in run.layers[0]}
        # passes alternate untraced, traced; a pair ran close together in
        # time, so its difference is less exposed to the machine's drift
        pairs = zip(run.walls[False], run.walls[True])
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        metrics["trace.untraced_wall_s"] = statistics.median(run.walls[False])
        metrics["work.checks_total"] = work
    else:
        if run.check_latencies:
            # one sample per check: its upper quartile over the run's passes
            lat = [upper_quartile(v) for v in zip(*run.check_latencies)]
        else:
            lat = run.latencies
        p90 = percentile(lat, 90)
        summary["latency_samples"] = len(lat)
        summary["samples_beyond_p90"] = sum(1 for v in lat if v > p90)
        summary["setup_samples"] = len(setup)
        metrics = {
            "setup_s": upper_quartile(setup),
            "wall_s": upper_quartile(run.walls[False]),
            "latency_p50_ms": percentile(lat, 50) * 1000,
            "latency_p90_ms": p90 * 1000,
            "peak_rss_mb": statistics.median(run.rss_mb),
        }
    reported = bench_metrics("per_layer" if traced_run else "end_to_end")
    print(json.dumps(summary, sort_keys=True))
    for m in reported:
        print(f"{m['name']} = {metrics[m['name']]} {m['unit']}")
    print(f"fail_ratio = {summary['fail_ratio']} ratio")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def bench_metrics(section: str) -> list[dict]:
    """The metrics BENCHMARK.json lists in one section, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


if __name__ == "__main__":
    sys.exit(main())
