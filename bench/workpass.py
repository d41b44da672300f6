"""One pass of one workload, in a fresh single-threaded process.

    python3 bench/workpass.py --workload sweep-1d --seed 1 --size full \
        --trace 0 --out DIR --result FILE

run.py starts it with BENCH_T0 set to the monotonic time of the launch (the
clock is system-wide on Linux), so set-up time covers interpreter start,
``import scnls``, config parse and Grid/InitialData build; --setup-only
stops there.  The pass then times the workload's computation and artifact
writing (wall and process CPU, with the machine's speed sampled alongside),
records the peak resident set, checks every output, and writes one JSON
result.  With --trace 1 the package's layer functions are wrapped first and
the result carries the per-layer metrics; the spans go to FILE.spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SpeedSampler:
    """Samples the machine's speed while the workload runs.

    Every PERIOD seconds a SIGALRM handler runs a short fixed burst of the
    three kinds of work the workloads spend their time in (interpreter loop,
    512-point and 128x128 FFT pairs) and records how long it took.  The
    bursts' total is subtracted from the pass's wall and CPU time, and
    ``speed`` rescales a time measured during the span to a machine on which
    one burst takes REF_BURST_S: on a shared host whose speed swings by tens
    of percent for minutes at a time, the rescaled times stay steady."""

    PERIOD = 0.25
    REF_BURST_S = 1.5e-3

    def __init__(self):
        import numpy as np

        self.x1 = np.ones(512, dtype=complex)
        self.x2 = np.ones((128, 128), dtype=complex)
        self.fft, self.ifft = np.fft.fftn, np.fft.ifftn
        self.samples: list[float] = []
        self.burst()   # warm, outside any timed span
        self.samples.clear()

    def burst(self, *_):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        for _ in range(20):
            self.ifft(self.fft(self.x1))
        self.ifft(self.fft(self.x2))
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def speed(self) -> float:
        """REF_BURST_S / mean burst time (bursts after the span if the span
        was too short to be sampled)."""
        samples = self.samples or [self._timed_burst() for _ in range(3)]
        return self.REF_BURST_S / (sum(samples) / len(samples))

    def _timed_burst(self) -> float:
        self.burst()
        return self.samples.pop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are ready (set-up time sample)")
    args = ap.parse_args(argv)
    t0 = float(os.environ["BENCH_T0"])

    import layers
    import workloads
    from spans import Tracer

    plan = workloads.make_plan(args.workload, args.seed, args.size)
    out = Path(args.out)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    inputs = workloads.setup(plan, out)
    setup_s = time.monotonic() - t0

    pkg = Path(inputs["scnls"].__file__).resolve()
    if ROOT / "src" not in pkg.parents:
        print(f"scnls imported from {pkg}, not from this checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    # traced passes run without the sampler: its bursts would add to the
    # FFT counts, and their times feed no gated metric
    sampler = SpeedSampler() if tracer is None else None
    w0, c0 = time.perf_counter(), time.process_time()
    if sampler is not None:
        with sampler:
            results = workloads.execute(plan, inputs)
    else:
        with tracer.span("pass"):
            results = workloads.execute(plan, inputs, tracer.span)
    burst_s = sum(sampler.samples) if sampler is not None else 0.0
    wall_s = time.perf_counter() - w0 - burst_s
    cpu_s = time.process_time() - c0 - burst_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    record = {"workload": plan["workload"], "seed": plan["seed"],
              "traced": bool(args.trace), "setup_s": setup_s, "wall_s": wall_s,
              "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "results": results}
    if sampler is not None:
        speed = sampler.speed()
        record.update(wall_ref_s=wall_s * speed, cpu_ref_s=cpu_s * speed,
                      bursts=sampler.samples)
    if tracer is not None:
        tracer.restore()
        record["layers"] = layers.reduce(tracer)
        spans_path = Path(args.result + ".spans.json")
        spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
        record["spans_file"] = str(spans_path)
    ops, hashes = workloads.check(plan, out, results)
    if tracer is not None:
        bad = layers.trace_check(record["layers"])
        if bad:
            for op in ops:
                workloads.fail_op(op, bad)
    record["ops"] = ops
    record["hashes"] = hashes
    Path(args.result).write_text(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
