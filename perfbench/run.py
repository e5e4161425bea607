"""seiznet benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train_uci --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): train_uci, predict_csv, stream_1row.
BENCHMARK.json lists the first two; stream_1row, whose rows/s spread by up
to 0.23 of its median over ten seeds on the host this was tuned on, is run
by hand. A run imports seiznet from src/ next to this directory, sets up
SETUP_REPEATS times (set-up model training, artifact load, input generation
from the seed), then repeats the workload's op for up to --seconds (at least
one op; another only while one more of the mean op length fits) and checks
every op's output.

--trace 0 reports the end-to-end metrics:
  setup_s        import time + median set-up time
  rows_per_s     rows handled per second of op time (train_uci: training rows
                 x epochs; predict_csv: lines printed; stream_1row: segments)
  loss           train_uci: val loss of the last epoch; predict_csv and
                 stream_1row: log loss of the probabilities against the
                 generated labels
  peak_rss_mb    ru_maxrss of this process
and prints per-op latency (median and nearest-rank p99) beside them.
--trace 1 runs the same ops once untraced and once traced, requires the two
to produce byte-identical outputs, and reports per-layer span metrics.

The last stdout line is the JSON result; the lines before it name every
metric with its unit, the workload's own name for it, error_rate and the
environment stamp. The result and stamp are also written to
.perfbench_work/results/ for compare.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import envstamp  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train_uci", "predict_csv", "stream_1row")

# Per-op latency is printed but not bounded: on the shared 2-vCPU host this was
# tuned on, every call runs 1.3-1.8x slower for stretches of seconds to
# minutes (CPU time per call rises with wall time, with one BLAS thread as
# with two), and the stream's median latency flips between those levels, so
# its quartile spread reached 0.26 of the median over ten seeds. The
# rows/s over all ops averages the levels (its spread was 0.11-0.23).
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "loss": "nats",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for d in ("forward", "backward"):
        for c in spans.CONV_STAGES:
            units[f"kernels.conv1d_{d}.c{c}.gflop_per_s"] = "GFLOP/s"
            units[f"kernels.conv1d_{d}.c{c}.gbyte_per_s"] = "GB/s"
    for c in spans.CONV_STAGES:
        for bc in spans.BATCH_CLASSES:
            units[f"kernels.conv1d_forward.c{c}.{bc}.gflop_per_s"] = "GFLOP/s"
    for d in ("forward", "backward"):
        units[f"kernels.maxpool_{d}.gbyte_per_s"] = "GB/s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.unaccounted_share"] = "ratio"
    return units


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure(wl, inp, seconds=None, n_ops=None, tracer=None):
    """Run exactly `n_ops` ops, or ops for `seconds`: at least one, and another
    only while one more op of the mean length so far still fits.
    Returns (outputs, per-op seconds); an output is None when its op raised."""
    clock = time.perf_counter
    results, times = [], []
    start = clock()
    while True:
        if tracer is not None:
            tracer.new_request()
        t0 = clock()
        try:
            result = wl.op(inp, len(results))
        except Exception:  # an op that raises counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            result = None
        t1 = clock()
        results.append(result)
        times.append(t1 - t0)
        if n_ops is not None:
            if len(results) >= n_ops:
                break
        elif (t1 - start) * (len(results) + 1) / len(results) > seconds:
            break
    return [None if r is None else wl.output(r) for r in results], times


def kernel_rates(tracer):
    def rate(kernel, prefix, field):
        total, ns = 0, 0
        for (name, tag), (_, flops, nbytes, t) in tracer.kernel_work.items():
            if name == kernel and tag.startswith(prefix):
                total += flops if field == "flops" else nbytes
                ns += t
        return total / ns if ns else 0.0  # per ns = giga per s

    out = {}
    for d in ("forward", "backward"):
        for c in spans.CONV_STAGES:
            out[f"kernels.conv1d_{d}.c{c}.gflop_per_s"] = rate(
                f"kernels.conv1d_{d}", f"c{c}.", "flops")
            out[f"kernels.conv1d_{d}.c{c}.gbyte_per_s"] = rate(
                f"kernels.conv1d_{d}", f"c{c}.", "bytes")
    for c in spans.CONV_STAGES:
        for bc in spans.BATCH_CLASSES:
            out[f"kernels.conv1d_forward.c{c}.{bc}.gflop_per_s"] = rate(
                "kernels.conv1d_forward", f"c{c}.{bc}", "flops")
    for d in ("forward", "backward"):
        out[f"kernels.maxpool_{d}.gbyte_per_s"] = rate(f"kernels.maxpool_{d}", "", "bytes")
    return out


def unaccounted_share(tracer):
    """Share of optim.train/optim.evaluate span time not covered by the self
    time of layers.*, kernels.* and optim.* spans (0 when neither ran)."""
    total = tracer.total_s(["optim.train", "optim.evaluate"])
    if total == 0.0:
        return 0.0
    accounted = sum(s for name, (_, s) in tracer.per_name().items()
                    if name.split(".")[0] in ("layers", "kernels", "optim"))
    return 1.0 - accounted / total


def run(args):
    if not os.path.isfile(os.path.join(SRC, "seiznet", "__init__.py")):
        print(f"perfbench: no seiznet sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import seiznet
    if os.path.dirname(os.path.abspath(seiznet.__file__)) != os.path.join(SRC, "seiznet"):
        print(f"perfbench: imported seiznet from {seiznet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from seiznet import kernels

    import workloads
    import_s = time.perf_counter() - T0

    wl = workloads.WORKLOADS[args.workload]
    run_id = f"{wl.name}-s{args.seed}-t{args.trace}"
    work = os.path.join(WORK, run_id)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup_model = workloads.set_up_model(work)
            inp = wl.inputs(args.seed, work, setup_model)
            setup_times.append(time.perf_counter() - t0)
        outputs, times = measure(wl, inp, seconds=args.seconds)
        problems = wl.check(inp, outputs)
        lines = [f"{len(times)} ops in {sum(times):.3f} s, latency p50 "
                 f"{statistics.median(times) * 1e3:.6g} ms, p99 "
                 f"{percentile(times, 99) * 1e3:.6g} ms; set-up "
                 f"{', '.join(f'{t:.3f}' for t in setup_times)} s + import {import_s:.3f} s"]
        if args.trace:
            tracer = spans.Tracer(wl.request_spans)
            with tracer:
                traced, traced_times = measure(wl, inp, n_ops=len(outputs), tracer=tracer)
            traced_problems = wl.check(inp, traced)
            for i, (a, b) in enumerate(zip(outputs, traced)):
                if a is not None and b is not None and a != b:
                    traced_problems[i] = traced_problems[i] + [
                        f"traced op {i} output differs from the untraced op"]
            problems += traced_problems
            units = per_layer_units()
            metrics = {f"{n}.{k}": v for n, (calls, self_s) in tracer.per_name().items()
                       for k, v in (("calls", calls), ("self_s", self_s))}
            metrics.update(kernel_rates(tracer))
            metrics["trace.overhead_ratio"] = sum(traced_times) / sum(times)
            metrics["trace.unaccounted_share"] = unaccounted_share(tracer)
            tracer.dump(os.path.join(results_dir, f"spans-{wl.name}.npz"))
            lines.append(f"{len(tracer.start)} spans in {tracer.request_id} requests; "
                         "per-layer self time, largest first:")
            ranked = sorted((k for k in metrics if k.endswith(".self_s")),
                            key=lambda k: -metrics[k])
            lines += [f"  {k:<40} {metrics[k]:10.4f} s  "
                      f"{metrics[k[:-len('self_s')] + 'calls']:>8} calls"
                      for k in ranked if metrics[k] > 0]
        else:
            units = END_TO_END
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "rows_per_s": sum(wl.rows(o) for o in outputs if o is not None)
                / sum(times),
                "loss": wl.loss(inp, outputs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    for i, p in enumerate(problems):
        if p:
            print(f"op {i} failed: {'; '.join(p)}", file=sys.stderr)
    env = envstamp.stamp(ROOT, kernels)
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for k, unit in units.items():
        alias = wl.aliases.get(k)
        print(f"{k} = {metrics[k]:.6g} {unit}" + (f"  ({alias})" if alias else ""))
    print(f"error_rate = {failed / len(problems):.6g} ratio "
          f"({failed} of {len(problems)} ops failed)")
    with open(os.path.join(results_dir, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
