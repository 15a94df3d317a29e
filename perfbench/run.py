"""radsurv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload extract_brats --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; radsurv is imported from ``src/``.
Workloads and metrics are declared in ``BENCHMARK.json``; the self-test is
``python3 -m pytest -q perfbench/tests``.

``--trace 0`` measures the end-to-end metrics. One op is one subject on the
``extract_*`` workloads and one CLI command on ``rfe`` and ``experiment``.
Op times are host-speed adjusted (see ``hostspeed.py``): ``adj_op_p50_s``
is the median adjusted op time (``adj_subject_p50_s`` / ``adj_run_p50_s``),
``adj_ops_per_s`` the closed-loop throughput in adjusted time
(``adj_subjects_per_s``). ``setup_s`` is imports + median set-up + one
warm-up op, set-up and warm-up adjusted the same way. ``peak_rss_mb`` is
the measuring process's maximum resident set (inputs are generated in a
child process, so it covers imports, warm-up and ops). The report lines
also give the raw wall-time figures (``subjects_per_s``,
``subject_p50_s``, ``run_p50_s``), ``subject_p90_s`` where a run holds at
least 100 subjects, the reference kernel's median time and
``ops_failed_frac``; the JSON carries failures as ``failed`` of
``attempted``.

``--trace 1`` runs each op once untraced and once traced and reports the
per-layer metrics (see ``layers.py``), including the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs are generated from ``--seed`` into ``.perfbench_work/`` and removed
at exit; reports (with the spans of traced runs) and the cross-process digest
cache stay there. Input files are read from the page cache, which this
benchmark does not drop, so volumeio times measure decoding, not the disk.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import traceback

# single-threaded numerics: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["RADSURV_WORKERS"] = "1"
os.environ.setdefault("RADSURV_LOG", "WARNING")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 0
NOTE = ("inputs are read from the page cache (caches are not dropped), so "
        "volumeio times measure decoding, not the disk")


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _more(workload, i, elapsed, seconds) -> bool:
    """Whether a run that has done ``i`` ops in ``elapsed`` seconds goes on.

    Ops run in whole cycles over the input set. A run stops at the cycle
    boundary nearest to ``seconds``, once it has done ``min_ops`` ops.
    """
    if i < workload.min_ops or i % workload.cycle:
        return True
    cycle_s = elapsed * workload.cycle / i
    return elapsed + cycle_s / 2 < seconds


def _run_ops(workload, gate, seconds, traced, count=None):
    """Closed loop over op indices, as long as ``_more`` says, or for
    exactly ``count`` indices. With ``traced``, each index runs untraced and
    then traced. Untraced ops are timed with the host-speed reference.
    Returns (``hostspeed.Timed`` of each passing untraced op by index, ops
    attempted, ops failed).
    """
    from perfbench.hostspeed import HostSpeed

    host = HostSpeed()
    timed, attempted, failed = {}, 0, 0
    start = time.perf_counter()
    i = 0
    while (i < count if count is not None else
           _more(workload, i, time.perf_counter() - start, seconds)):
        for run_traced in (False, True) if traced else (False,):
            attempted += 1
            try:
                workload.prepare(i)
                if run_traced:
                    result, took = workload.traced_op(i), None
                else:
                    result, took = host.time(lambda: workload.op(i))
                checks = [gate.check(key, text)
                          for key, text in workload.rows(i, result)]
                if all(checks):
                    if took is not None:
                        timed[i] = took
                    continue
            except Exception:
                traceback.print_exc()
            failed += 1
        i += 1
    return timed, attempted, failed


def _generate(workload, tracer, send):
    """Child side of ``_generate_in_child``."""
    from perfbench.hostspeed import HostSpeed

    try:
        first = len(tracer.spans)
        _, took = HostSpeed().time(workload.generate)
        state = {k: v for k, v in vars(workload).items() if k != "tracer"}
        send.send((True, (state, tracer.spans[first:], took)))
    except BaseException:
        send.send((False, traceback.format_exc()))
    finally:
        send.close()


def _generate_in_child(workload, tracer):
    """``workload.generate()`` in a forked child, so the arrays it builds
    never count toward this process's peak RSS. The attributes it sets and
    the spans it records are copied back; span parents stay valid because
    the parent records nothing while the child runs. Returns the
    ``hostspeed.Timed`` of ``generate`` in the child."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_generate, args=(workload, tracer, send))
    child.start()
    send.close()
    try:
        ok, payload = receive.recv()
    finally:
        receive.close()
        child.join()
    if not ok:
        raise RuntimeError(f"set-up failed in the child process:\n{payload}")
    state, spans, took = payload
    vars(workload).update(state)
    tracer.spans.extend(spans)
    return took


def _set_up(workload, tracer, imports_s):
    """Set up ``setup_reps`` times, then warm up once; returns setup_s
    (imports + median set-up + warm-up, the last two host-speed adjusted)
    and its parts, raw and adjusted."""
    import resource

    from perfbench.hostspeed import HostSpeed

    reps = []
    for rep in range(workload.setup_reps):
        tracer.op = f"setup{rep}"
        reps.append(_generate_in_child(workload, tracer))
    tracer.op = None
    _, warm = HostSpeed().time(workload.warm_up)
    generate = _median([t.adjusted for t in reps])
    parts = {"imports_s": imports_s,
             "generate_s": [t.wall for t in reps],
             "generate_adj_s": [t.adjusted for t in reps],
             "warm_up_s": warm.wall, "warm_up_adj_s": warm.adjusted,
             "generate_peak_rss_mb":
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    return imports_s + generate + warm.adjusted, parts


def _summary_lines(workload, timed, setup_s, peak, attempted, failed):
    """(name, value, unit, samples, comment) of every end-to-end figure,
    under the names the workload's users know them by, and the values of
    the declared end-to-end metrics."""
    times = sorted(t.wall for t in timed.values())
    adjusted = sorted(t.adjusted for t in timed.values())
    n = len(times)
    rate = n / sum(times) if times else 0.0
    adjusted_rate = n / sum(adjusted) if adjusted else 0.0
    references = [t.reference for t in timed.values()]
    adj = "host-speed adjusted"
    lines = [("setup_s", setup_s, "s", workload.setup_reps,
              "imports + median set-up + warm-up, " + adj)]
    if workload.unit == "subject":
        lines += [("subjects_per_s", rate, "1/s", n, ""),
                  ("subject_p50_s", _median(times), "s", n, "")]
        if n >= 100:
            lines.append(("subject_p90_s",
                          statistics.quantiles(times, n=10)[-1], "s", n, ""))
        lines += [("adj_subjects_per_s", adjusted_rate, "1/s", n, adj),
                  ("adj_subject_p50_s", _median(adjusted), "s", n, adj)]
    else:
        lines += [("run_p50_s", _median(times), "s", n,
                   "wall time per command"),
                  ("adj_run_p50_s", _median(adjusted), "s", n, adj)]
    lines += [("host_reference_ms", _median(references) * 1e3, "ms",
               sum(t.samples for t in timed.values()),
               "reference kernel, median over ops"),
              ("peak_rss_mb", peak, "MiB", 1, "ru_maxrss"),
              ("ops_failed_frac", failed / attempted if attempted else 1.0,
               "fraction", attempted, "raised or failed the gate")]
    e2e = {"adj_op_p50_s": _median(adjusted), "adj_ops_per_s": adjusted_rate,
           "setup_s": setup_s, "peak_rss_mb": peak}
    return lines, e2e


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full",
                        help="input sizes: full (measured) or tiny (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "radsurv")):
        print(f"error: no radsurv sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    import numpy as np
    from perfbench.gate import Gate, source_digest
    from perfbench.layers import moves, per_layer
    from perfbench.spans import Tracer
    from perfbench.workloads import SCALES, WORKLOADS, load_expected

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, "
                     f"expected one of {sorted(WORKLOADS)}")
    scale = SCALES[args.scale]
    fixed = args.seed == DEFAULT_SEED and scale.name == "full"
    imports_s = time.perf_counter() - _T_START

    state = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(state, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    src_hash = source_digest(os.path.join(ROOT, "src", "radsurv"))
    bench_hash = source_digest(os.path.join(ROOT, "src", "radsurv"),
                               os.path.join(ROOT, "perfbench"))
    expected = os.path.join(ROOT, "perfbench", "expected.json")
    gate = Gate(load_expected(expected, args.workload) if fixed else {},
                os.path.join(state, "digests.json"),
                f"{bench_hash}/{args.workload}/{args.seed}/{scale.name}/")
    tracer = Tracer(enabled=bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, scale, workdir, tracer)
    try:
        setup_s, setup_parts = _set_up(workload, tracer, imports_s)
        timed, attempted, failed = _run_ops(workload, gate, args.seconds,
                                            traced=bool(args.trace))
        tracer.op = None
        inputs = workload.inputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate.save()

    lines, e2e = _summary_lines(workload, timed, setup_s, _peak_rss_mib(),
                                attempted, failed)
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "radsurv_workers": os.environ["RADSURV_WORKERS"],
        "git_sha": _git_sha(),
        "source_sha256": src_hash,
        "seed": args.seed,
        "scale": scale.name,
    }
    print(f"# radsurv benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} closed loop, 1 caller, 1 process")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"note {NOTE}")
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print("setup " + json.dumps(setup_parts))
    for name, value, unit, count, why in lines:
        print(f"metric {name} = {value:.6g} {unit} (n={count})"
              + (f"  # {why}" if why else ""))
    for error in gate.errors:
        print(f"gate {error}")

    report = {"workload": args.workload, "env": env, "note": NOTE,
              "inputs": inputs, "setup": setup_parts, "end_to_end": e2e,
              "attempted": attempted,
              "failed": failed, "gate_errors": gate.errors, "claim": None}
    chosen, declared = e2e, spec["end_to_end"]
    if args.trace:
        measured = per_layer([m["name"] for m in spec["per_layer"]], tracer,
                             {i: t.wall for i, t in timed.items()})
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, (value, count) in measured.items():
            print(f"layer {name} = {value:.6g} {units[name]} (n={count})"
                  f"  # moves {moves(name)}")
        chosen = {name: value for name, (value, _) in measured.items()}
        declared = spec["per_layer"]
        report.update(per_layer=chosen, spans=tracer.spans,
                      notes={str(k): v for k, v in tracer.notes.items()})
    reports = os.path.join(state, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    correct = failed == 0 and not gate.errors and attempted > 0
    metrics = {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
