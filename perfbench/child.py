"""One fresh-interpreter unit of benchmark work; run.py starts it.

    child.py setup <workload> <seed>        import the program, build the inputs, exit
    child.py pass <workload> <seed> <pass> <0|1>
                                            one pass over a check workload, traced or not
    child.py cli <argv...>                  one traced ``wronskit`` invocation

Each mode prints one JSON object on stdout.  Wall-clock stamps
(``time.time()``) let the parent measure from the moment it started this
process; durations use ``time.perf_counter()``.  Only os, sys and time are
imported before the program, so the program's import cost is not hidden by
modules the benchmark happened to load first.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def bind(wk, check: str, p: dict):
    """The public wronskit call that performs one generated check."""
    if check == "wronskian-factorization":
        return wk.verify_wronskian_factorization, (p["n"], p["shift"], wk.Trig(p["kind"]))
    if check == "wronskian-dependence":
        return wk.verify_dependence, (p["n"], wk.Trig(p["kind"]))
    if check == "even-hankel-transform":
        return wk.verify_even_hankel_transform, (p["steps"], p["shift"], p["n"], wk.Trig(p["kind"]))
    if check == "wronskian-transform":
        return wk.verify_wronskian_transform, (p["n"], wk.Trig(p["kind"]))
    if check == "det-closed-form":
        spec = wk.MatrixSpec(wk.MatrixKind(p["kind"]), n=p.get("n", 0), a=p.get("a"), b=p.get("b"),
                             nodes=p.get("nodes"))
        return wk.det_identity, (spec,)
    if check == "odd-binomial-sum":
        return wk.check_odd_binomial_sum, (p["n"], p["j"])
    if check == "even-binomial-sum":
        return wk.check_even_binomial_sum, (p["n"], p["j"])
    single = {
        "coordinate-full-rank": wk.verify_full_rank,
        "pascal-product": wk.verify_pascal_product,
        "binom-triangularization": wk.verify_triangularization,
        "binom-even-from-odd": wk.verify_even_from_odd,
    }
    return single[check], (p["n"],)


def run_setup(workload: str, seed: int) -> dict:
    """Import the program and build the inputs; this is what setup_s times."""
    if workload == "cli-verify":
        import wronskit.cli  # noqa: F401
        import workloads
        inputs = workloads.cli_commands(seed)
    else:
        import wronskit
        import workloads
        inputs = [bind(wronskit, check, params) for check, params in workloads.checks(workload, seed)]
    return {"ready": time.time(), "inputs": len(inputs)}


def run_pass(workload: str, seed: int, pass_index: int, traced: bool) -> dict:
    import resource

    import tracing
    import workloads
    import wronskit
    items = workloads.checks(workload, seed)
    order = workloads.pass_order(len(items), seed, pass_index)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    calls = [bind(wronskit, check, params) for check, params in items]
    # both indexed like items, whatever order the pass runs them in
    results = [None] * len(items)
    latencies = [0.0] * len(items)
    clock = time.perf_counter
    started = clock()
    for i in order:
        fn, args = calls[i]
        t0 = clock()
        try:
            outcome = fn(*args)
        except Exception as exc:  # a raising check is a failed check, not a crashed run
            outcome = exc
        latencies[i] = clock() - t0
        results[i] = outcome
    wall = clock() - started
    failures = []
    for (check, params), outcome in zip(items, results):
        if isinstance(outcome, Exception):
            failures.append(f"{check} {params}: raised {outcome!r}")
            continue
        want = workloads.known_answer(check, params)
        if outcome.check != check or outcome.computed != want or not outcome.passed:
            failures.append(f"{check} {params}: computed {outcome.computed}, known answer {want}")
    out = {
        "wall_s": wall,
        "latencies": latencies,
        "attempted": len(items),
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.stats
        out["cache"] = tracing.cache_counts()
        out["missing"] = tracer.missing
    return out


def run_cli(argv: list[str]) -> dict:
    clock = time.perf_counter
    t0 = clock()
    import contextlib
    import io

    import tracing
    t1 = clock()
    import wronskit.cli
    t2 = clock()
    tracer = tracing.Tracer()
    tracer.install()
    buf = io.StringIO()
    t3 = clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = wronskit.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    t4 = clock()
    out = {
        "exit": code,
        "stdout": buf.getvalue(),
        "import_s": t2 - t1,
        "main_s": t4 - t3,
        "layers": tracer.stats,
        "cache": tracing.cache_counts(),
        "missing": tracer.missing,
    }
    # the tracer's own imports, installation and this record are not process overhead
    out["tracing_s"] = (t1 - t0) + (t3 - t2) + (clock() - t4)
    return out


def main() -> None:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        out = run_setup(rest[0], int(rest[1]))
    elif mode == "pass":
        out = run_pass(rest[0], int(rest[1]), int(rest[2]), rest[3] == "1")
    elif mode == "cli":
        out = run_cli(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import json
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
