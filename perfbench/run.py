"""rxgb benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train|boost|infer|pipeline \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` next to
this directory and nowhere else. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit and the result of every output check.

With ``--trace 0`` the metrics are the end-to-end ones, and every workload
reports all of them:

    setup_s      median of the timed set-ups spread over the run (seven; 21
                 for boost, whose set-up takes ~10 ms), after four untimed
                 warm-ups
    peak_rss_mb  peak resident memory of this process
    op_p50_ms    median latency of the workload's op: one SGD step (train),
                 one tree (boost), one batch-1 request (infer), one whole
                 ``rxgb pipeline`` run (pipeline)
    items_per_s  training images per SGD second (train), feature rows per
                 tree second (boost), batch-256 images per second (infer),
                 images of the synthetic splits per pipeline second (pipeline)

The three times are at the reference host speed: each timed interval is
scaled by the probe times measured next to it (probe.py), because on a
shared host the speed drifts by more than the bounds over a run. The unscaled
medians are printed beside them and every raw sample is kept in the details.

With ``--trace 1`` the ops of each phase alternate untraced and traced and
the metrics are the per-layer ones (see breakdown.py). Details, per-layer
tables and spans go to ``.perfbench_out/`` under the repository root.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:                 # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_WARMUPS = 4
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"),
              ("items_per_s", "1/s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "boost", "infer", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import rxgb from ROOT/src only; None when that tree is absent."""
    src = ROOT / "src"
    if not (src / "rxgb" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import rxgb
    if Path(rxgb.__file__).resolve().parent != src / "rxgb":
        return None
    return rxgb


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def measure(wl, seconds, probe, ops, samples, raw, setups, tracer=None, traced=None):
    """Run the workload's ops for ``seconds``; returns (attempted, failed).

    The phases take turns, ``count`` ops each, so every phase samples the
    whole run: a shared host's speed drifts over seconds, and back-to-back
    phases would each see one stretch of it. For the same reason the
    workload's SETUP_REPS timed set-ups are spread over the run. The
    ``probe`` runs before the first set-up, after every set-up and op, and
    inside an untraced op at its pause points; every timed interval is then
    scaled to the reference host speed (see probe.py). The run stops at the
    first op that would not end in time, judged by the median wall time of
    its phase so far, once every phase has its minimum number of ops. With a
    ``tracer`` the ops of each phase alternate untraced and traced, at least
    one of each; traced latency samples go to ``traced``. An op that raises
    or fails a check counts as failed. ``ops`` collects (phase, timed wall or
    None when the op raised, traced) per op id, ``samples`` the untraced
    scaled latency samples per phase, ``raw`` the same unscaled, less the
    probes inside them (and the set-ups' under "setup"), and ``setups`` the
    scaled set-up times.
    """
    import breakdown
    import workloads
    from stats import median

    setup_spans, spans = [], {}          # (start, end) intervals, scaled at the end

    def set_up(due):
        while len(setup_spans) < due:
            t0 = perf_counter()
            wl.setup()
            setup_spans.append((t0, perf_counter()))
            probe.mark()

    def finish():
        setups.extend(probe.scale(*iv) for iv in setup_spans)
        raw["setup"] = [probe.busy(*iv) for iv in setup_spans]
        for (name, on), ivs in spans.items():
            (traced if on else samples)[name] = [probe.scale(*iv) for iv in ivs]
            if not on:
                raw[name] = [probe.busy(*iv) for iv in ivs]
        return attempted, failed

    start = perf_counter()
    phases = wl.phases()
    walls = {ph.name: [] for ph in phases}
    min_ops = 1 if tracer is None else 2
    reps = wl.SETUP_REPS
    attempted = failed = 0
    probe.mark()

    def next_op_fits(ph):
        if any(len(w) < min_ops for w in walls.values()):
            return True
        return perf_counter() + median(walls[ph.name]) <= start + seconds

    while True:
        for ph in phases:
            for _ in range(ph.count):
                if not next_op_fits(ph):
                    set_up(reps)
                    return finish()
                set_up(min(reps, 1 + int(reps * (perf_counter() - start) / seconds)))
                w = walls[ph.name]
                on = tracer is not None and len(w) % 2 == 1
                if on:
                    breakdown.instrument(tracer, workloads.RX)
                    wl.tracer, tracer.op = tracer, len(ops)
                t0 = perf_counter()
                wall, checks_failed = None, wl.check.failed
                try:
                    with (contextlib.nullcontext() if on
                          else probe.pausing(workloads.PAUSE_POINTS)):
                        ivs, wall = ph.op(len(w))
                    spans.setdefault((ph.name, on), []).extend(ivs)
                    attempted += len(ivs)
                    failed += len(ivs) if wl.check.failed > checks_failed else 0
                except Exception:                      # noqa: BLE001 - count it
                    traceback.print_exc()
                    attempted, failed = attempted + ph.per_op, failed + ph.per_op
                finally:
                    if on:
                        tracer.restore()
                        wl.tracer, tracer.op = None, -1
                probe.mark()
                w.append(perf_counter() - t0)
                ops.append((ph.name, wall, on))


def print_header(args, env, wl, attempted, failed, setups, peak_rss_mb, samples, raw,
                 probe):
    from probe import REF_S
    from stats import median

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, (ok, bad, detail) in sorted(wl.check.results.items()):
        print(f"check {name}: {'ok' if not bad else 'FAILED'} "
              f"({ok} passed, {bad} failed){' ' + detail if detail else ''}")
    print(f"ops_attempted {attempted} count")
    print(f"ops_failed {failed} count")
    print(f"probe median {1e3 * median(probe.times):.3f} ms (n={len(probe.times)}); "
          f"times below are scaled to the reference {1e3 * REF_S:g} ms, unscaled: "
          f"setup_s {median(raw['setup']):.6f} s"
          + (f", {wl.PRIMARY} p50 {1e3 * median(raw[wl.PRIMARY]):.6g} ms"
             if wl.PRIMARY in raw else ""))
    print(f"setup_s {median(setups):.6f} s (n={len(setups)})")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    if wl.PRIMARY in samples:
        for name, (value, unit, n) in wl.summary(samples).items():
            if value is not None:
                print(f"{name} {value:.6g} {unit}" + (f" (n={n})" if n else ""))


def trace_metrics(args, wl, tracer, ops, samples, traced, tag):
    """Per-layer metrics of the traced ops; prints and writes the table."""
    import breakdown
    import workloads
    from stats import median

    timed = [(op_id, phase, wall) for op_id, (phase, wall, is_traced) in enumerate(ops)
             if is_traced and wall is not None]
    trace_times = {
        "op_s_untraced": median(samples[wl.PRIMARY]),
        "op_s_traced": median(traced[wl.PRIMARY]),
        "wall_s": sum(w for _, _, w in timed),
    }
    sizes = (wl.N_TRAIN, wl.N_TEST) if args.workload == "pipeline" else None
    n_ops = sum(len(v) for v in traced.values())
    values = breakdown.per_layer_values(tracer, n_ops, workloads.RX, wl.spec,
                                        trace_times, sizes)
    phases = {}
    for op_id, phase, wall in timed:
        ids, total = phases.get(phase, (set(), 0.0))
        phases[phase] = (ids | {op_id}, total + wall)
    table = breakdown.render_table(tracer, phases, workloads.RX, wl.spec)
    print(table)
    print(f"tracing overhead {values['trace.overhead_pct']:.2f}% (median "
          f"{wl.PRIMARY} {trace_times['op_s_untraced']:.4f} s untraced, "
          f"{trace_times['op_s_traced']:.4f} s traced); self times account for "
          f"{values['trace.accounted_pct']:.2f}% of traced op wall time")
    (OUT / f"{tag}.table.txt").write_text(table + "\n", encoding="utf-8")
    tracer.dump(OUT / f"{tag}.spans.jsonl")
    units = {n: u for n, u, _ in breakdown.per_layer_metrics()}
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}


def run(args):
    import workloads
    from probe import Probe
    from spans import Tracer
    from stats import median

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    ops, samples, raw, traced = [], {}, {}, {}
    tracer = Tracer() if args.trace else None
    probe = Probe()
    try:
        wl.prepare()
        for _ in range(SETUP_WARMUPS):          # the allocator grows its heap here
            wl.setup()
            probe.kernels()
        setups = []
        attempted, failed = measure(wl, args.seconds, probe, ops, samples, raw, setups,
                                    tracer, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()
    print_header(args, env, wl, attempted, failed, setups, peak_rss_mb, samples, raw,
                 probe)
    metrics = None
    if wl.PRIMARY not in samples or (args.trace and wl.PRIMARY not in traced):
        print("error: no op of the latency phase completed", file=sys.stderr)
    elif not args.trace:
        values = {"setup_s": median(setups), "peak_rss_mb": peak_rss_mb,
                  "op_p50_ms": 1e3 * median(samples[wl.PRIMARY]),
                  "items_per_s": wl.items_per_s(samples)}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        for n, m in metrics.items():
            print(f"{n} {m['value']:.6g} {m['unit']}")
    else:
        metrics = trace_metrics(args, wl, tracer, ops, samples, traced, tag)

    correct = failed == 0 and all(r[1] == 0 for r in wl.check.results.values())
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s_samples": setups,
              "samples": samples, "traced_samples": traced, "raw_samples": raw,
              "probe_s": probe.times, "probe_starts": probe.starts,
              "checks": wl.check.results, "report": wl.report, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str),
                                     encoding="utf-8")
    if metrics is None:
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if import_package() is None:
        print(f"error: no rxgb package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
