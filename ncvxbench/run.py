"""Benchmark for ncvx: one workload at one seed, closed loop, one caller.

    python3 ncvxbench/run.py --workload verify-lp --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` it times ops for `--seconds` seconds and reports the
end-to-end metrics.  With `--trace 1` it runs a fixed list of ops, each
cache block untraced and then traced, and reports the per-layer metrics.  Every op's
output is checked after the timed section.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

# per workload: fresh processes timed for setup_s (the median is
# reported), and ops in the fixed list of a traced run per second of
# --seconds, split evenly over the segments and sized so that the
# untraced pass takes about 40 % of it
WORKLOADS = {
    "verify-lp": (7, 2.5),
    "verify-oracle": (5, 1.4),
    "cli-cold": (3, 6.5),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


def host_reference_ms() -> float:
    """Median time of a fixed 4000-term Fraction sum: a gauge of how fast
    the host runs right now.  Printed beside the metrics, never mixed in."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 4001):
            total += Fraction(1, k * (k + 1))
        times.append((time.perf_counter() - t0) * 1e3)
    if total != Fraction(4000, 4001):
        raise RuntimeError("host reference loop miscomputed")
    return statistics.median(times)


def probe_setup_s(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    ncvx and built the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_ops(ops, reset, count=None, deadline=None):
    """Closed loop: the next op starts when the previous one returns.
    Runs `count` ops, or until `deadline` has passed."""
    latencies, outputs, errors = [], [], []
    t0 = time.perf_counter()
    while (count is None or len(latencies) < count) and (deadline is None or not latencies or time.perf_counter() < deadline):
        op = next(ops)
        if op.clear_first:
            reset()
        ts = time.perf_counter()
        try:
            text = op.run()
        except Exception as exc:  # a crashing op is a failed op; keep going
            text = None
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - ts)
        outputs.append((op, text))
    return time.perf_counter() - t0, latencies, outputs, errors


def cache_blocks(ops) -> list:
    """Split an op list where the caches are cleared."""
    blocks = []
    for op in ops:
        if op.clear_first or not blocks:
            blocks.append([])
        blocks[-1].append(op)
    return blocks


def check_outputs(outputs) -> list:
    failures = []
    for op, text in outputs:
        if text is None:
            continue
        try:
            bad = op.check(text)
        except Exception as exc:  # a check that crashes fails its op
            bad = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if bad:
            failures.append(bad)
    return failures


def digest(outputs) -> str:
    h = hashlib.sha256()
    for _, text in outputs:
        h.update((text or "<crashed>").encode("utf-8") + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncvx", "__init__.py")):
        print(f"ncvxbench: no ncvx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ncvx

    if os.path.dirname(os.path.abspath(ncvx.__file__)) != os.path.join(SRC, "ncvx"):
        print(f"ncvxbench: ncvx imported from {ncvx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tr
    import workloads

    probes, trace_rate = WORKLOADS[args.workload]
    modules = tr.ncvx_modules()
    caches = tr.Caches(modules)
    segments = workloads.build(args.workload, args.seed, os.path.join(WORKDIR, args.workload))
    if args.setup_only:
        print("ready", flush=True)
        return 0

    ref_before = host_reference_ms()
    notes = []
    if args.trace == 0:
        setups = [probe_setup_s(args.workload, args.seed) for _ in range(probes)]
        caches.clear()
        lat, outputs, errors = [], [], []
        share = args.seconds / len(segments)
        t0 = time.perf_counter()
        for k, segment in enumerate(segments):
            _, seg_lat, seg_out, seg_err = run_ops(segment(), caches.clear, deadline=t0 + (k + 1) * share)
            lat += seg_lat
            outputs += seg_out
            errors += seg_err
        wall = time.perf_counter() - t0
        failures = errors + check_outputs(outputs)
        n = len(lat)
        lat_ms = sorted(x * 1e3 for x in lat)
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[-1] if n > 1 else lat_ms[0]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n / wall,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": p90,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (n - len(failures)) / n,
        }
        units = END_TO_END_UNITS
        beyond = sum(1 for x in lat_ms if x > p90)
        notes.append(f"ops {n} in {wall:.2f} s; op_p90_ms from {n} samples, {beyond} beyond it")
        by_label = collections.Counter(op.label for op, _ in outputs)
        notes.append("ops by label " + " ".join(f"{k}={v}" for k, v in by_label.items()))
        notes.append(f"setup_s samples {' '.join(f'{s:.4f}' for s in setups)}")
        caches.clear()
        self_tests = ["a cache is not empty after cache_clear"] if any(caches.sizes()) else []
    else:
        per_segment = max(1, round(args.seconds * trace_rate / len(segments)))
        op_list = [op for segment in segments for op in itertools.islice(segment(), per_segment)]
        tracer = tr.Tracer(modules)
        wall0 = wall1 = 0.0
        out0, out1, errors = [], [], []
        # each block runs untraced and then traced, so that both passes
        # see the same host speed and the overhead estimate stays fair
        for block in cache_blocks(op_list):
            wall, _, outputs, errs = run_ops(iter(block), caches.clear, count=len(block))
            wall0 += wall
            out0 += outputs
            errors += errs
            tracer.install()
            try:
                wall, _, outputs, errs = run_ops(iter(block), caches.clear, count=len(block))
                tracer.harvest()
            finally:
                tracer.uninstall()
            wall1 += wall
            out1 += outputs
            errors += errs
        caches.clear()
        self_tests = []
        if tracer.leftovers():
            self_tests.append(f"wrappers left behind: {tracer.leftovers()}")
        if any(caches.sizes()):
            self_tests.append("a cache is not empty after cache_clear")
        if digest(out0) != digest(out1):
            self_tests.append("traced and untraced outputs differ")
        outputs = out1
        failures = errors + check_outputs(out0) + check_outputs(out1)
        n = len(out0) + len(out1)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = wall1 / wall0 - 1
        units = None
        notes.append(f"ops {len(op_list)} per pass; untraced {wall0:.2f} s, traced {wall1:.2f} s")
        notes.append(f"traced wall outside every traced function {max(0.0, wall1 - tracer.traced_s()):.3f} s")
        notes.append(f"aliases rebound {tracer.rebound_count} for {len(tracer.targets)} functions; caches {len(caches.funcs)}")
        lp_share = metrics["lp.solve_lp.self_s"] / wall1
        orc_share = metrics["oracle.check_self_s"] / wall1
        gen_share = metrics["oracle.gen_self_s"] / wall1
        notes.append(
            f"self-time share of traced wall: lp.solve_lp {lp_share:.3f}, "
            f"oracle checks {orc_share:.3f}, oracle generators {gen_share:.3f}"
        )
    ref_after = host_reference_ms()

    notes.append(f"stdout_sha256 {digest(outputs)} over {len(outputs)} ops")
    notes.append(f"host_ref_ms before {ref_before:.3f} after {ref_after:.3f}")
    for line in notes:
        print(line)
    for msg in (self_tests + failures)[:20]:
        print(f"FAILED {msg}")
    report = {}
    for name, value in metrics.items():
        unit = units[name] if units else per_layer_unit(name)
        report[name] = {"value": value, "unit": unit}
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures and not self_tests,
                "attempted": n,
                "failed": len(failures),
                "metrics": report,
            }
        )
    )
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_frac", "_per_solve")):
        return "ratio"
    if name.startswith("jsonio.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
