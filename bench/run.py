"""Repository benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/``, byte-compiles ``src/scnls`` and ``bench`` into their
``__pycache__`` directories, and writes everything else under ``bench/out/``.
A run is a closed loop of passes, one job at a time: each pass is a fresh
single-threaded process (SCNLS_WORKERS=1, BLAS/OpenMP threads 1) that sets
up, runs the whole workload once and checks its outputs.  Passes repeat
until the next one would end after --seconds (at least 2, or 3 when traced).

--trace 0 reports the end-to-end metrics as medians over the passes:

    wall_ref_s   wall time of the computation and artifact writing, excluding
                 set-up, rescaled to a reference machine speed (see below)
    cpu_ref_s    process user+sys CPU time over the same span, rescaled alike;
                 a gain on wall that comes from burning a second core shows
    setup_s      process launch until inputs are ready (interpreter start,
                 import scnls, config parse, Grid/InitialData build),
                 rescaled by a reference launch (below); median over
                 SETUP_PROBES set-up-only launches before each pass
    peak_rss_mb  peak resident set of the pass process
    ok_frac      operations that passed their checks / operations attempted
                 (1 - fail_frac; an operation is a sweep row or a CLI command)

The plain wall_s, cpu_s and setup_wall_s are printed as well.  They are
not the gated figures because on a shared 2-vCPU KVM guest (Intel Xeon,
family 6 model 143) the machine's speed changed by 30-50% for minutes at a
time: ten seeds of each workload spread by 0.07-0.28 (quartile distance over
median) in wall_s, against 0.02-0.07 once rescaled.  The rescaling samples
a fixed reference burst every 0.25 s during the timed span
(workpass.SpeedSampler) and multiplies each time by 1.5 ms / mean burst
time, so a faster program still reads proportionally faster.  Set-up is too
short to be sampled that way, and most of it is interpreter start and
``import numpy``, which the bursts do not track.  So each set-up-only launch
is paired with a reference launch just before it (REF_LAUNCH: interpreter
start and ``import numpy``, timed the same way) and rescaled by
REF_LAUNCH_S / its time, which cancels the swings the two launches share.

--trace 1 runs one untraced pass and then traced passes, and reports the
per-layer metrics of layers.PER_LAYER (medians over the traced passes) plus
the tracing overhead (traced minus untraced wall_s).

Every metric is printed with its unit and sample count; the last line of
stdout is the JSON result {"correct", "attempted", "failed", "metrics"}.  The
full record (environment, every pass) goes to bench/out/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))
PER_PASS = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("wall_s", "s"),
            ("cpu_s", "s"), ("peak_rss_mb", "MB"))
RUN_LIMIT_S = 165.0     # a run must end well inside 180 s
SETUP_PROBES = 5        # set-up-only launches before each untraced-run pass
REF_LAUNCH = ("import os, time, numpy; "
              "print(time.monotonic() - float(os.environ['BENCH_T0']))")
REF_LAUNCH_S = 0.2      # REF_LAUNCH's time on the reference machine
THREAD_VARS = {"SCNLS_WORKERS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def _pass_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(THREAD_VARS)
    return env


def run_pass(args, index, traced: bool, run_dir: Path, timeout: float,
             setup_only: bool = False) -> dict:
    out = run_dir / f"pass{index}"
    result = run_dir / f"pass{index}.json"
    log = run_dir / f"pass{index}.log"
    cmd = [sys.executable, str(HERE / "workpass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--trace", "1" if traced else "0", "--out", str(out),
           "--result", str(result)] + (["--setup-only"] if setup_only else [])
    env = _pass_env()
    with open(log, "w") as fh:
        env["BENCH_T0"] = repr(time.monotonic())
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=fh, stderr=fh,
                                  timeout=max(timeout, 1.0))
            code = proc.returncode
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            code = "timeout"
    shutil.rmtree(out, ignore_errors=True)
    if code == 0 and result.is_file():
        return json.loads(result.read_text())
    tail = log.read_text()[-2000:] if log.is_file() else ""
    why = f"pass process failed ({code}): {tail.strip().splitlines()[-1:] }"
    plan = workloads.make_plan(args.workload, args.seed, args.size)
    return {"traced": traced, "crashed": True, "hashes": {},
            "ops": [{"name": op, "cmd": None, "ok": False, "why": why}
                    for op in plan["ops"]]}


def ref_launch(timeout: float) -> float | None:
    """Seconds from launch until ``import numpy`` is done, in a process
    started like a pass; None if it fails."""
    env = _pass_env()
    env["BENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run([sys.executable, "-c", REF_LAUNCH], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        return None
    return float(proc.stdout) if proc.returncode == 0 else None


def _git_sha() -> str:
    # the ceiling keeps git from reporting an enclosing repository's HEAD
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "thread_env_outer": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_pass": THREAD_VARS,
    }


def _quartiles(vals: list[float]) -> tuple[float, float]:
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def mark_inconsistent(passes: list[dict]) -> None:
    """Fail the operations of a pass whose content hashes, or (traced) exact
    counts, differ from the first pass that has them."""
    ref = next((p["hashes"] for p in passes if p["hashes"]), {})
    traced = [p for p in passes if "layers" in p]
    for p in passes:
        for op in p["ops"]:
            if op["cmd"] is not None and p["hashes"].get(op["cmd"]) != ref.get(op["cmd"]):
                workloads.fail_op(op, "content hash differs from the run's first pass")
    for p in traced[1:]:
        diff = [k for k in layers.EXACT_COUNTS
                if p["layers"][k] != traced[0]["layers"][k]]
        if diff:
            for op in p["ops"]:
                workloads.fail_op(op, f"counts differ between passes: {diff}")


def summarize(passes: list[dict], setups: list, trace: bool) -> tuple[dict, dict]:
    """(metrics for the JSON line, stats with sample counts and quartiles);
    setups are the set-up-only records, with their reference launch times."""
    stats: dict = {}

    def add(name: str, unit: str, vals: list[float]):
        q1, q3 = _quartiles(vals)
        stats[name] = {"value": statistics.median(vals), "unit": unit,
                       "n": len(vals), "q1": q1, "q3": q3}

    ops = [op for p in passes for op in p["ops"]]
    fail_frac = sum(not op["ok"] for op in ops) / len(ops)
    plain = [p for p in passes if not p.get("crashed") and not p["traced"]]
    traced = [p for p in passes if "layers" in p]
    if plain:
        for name, unit in PER_PASS:
            add(name, unit, [p[name] for p in plain])
        pairs = [s for s in setups if s.get("ref_launch_s") and "setup_s" in s]
        if pairs:
            add("setup_s", "s", [s["setup_s"] / s["ref_launch_s"] * REF_LAUNCH_S
                                 for s in pairs])
        add("setup_wall_s", "s", [s["setup_s"] for s in setups + plain
                                  if "setup_s" in s])
    for name, value in (("ok_frac", 1.0 - fail_frac), ("fail_frac", fail_frac)):
        stats[name] = {"value": value, "unit": "ratio", "n": len(ops),
                       "q1": None, "q3": None}
    if traced:
        for name, unit, _ in layers.PER_LAYER:
            if not name.startswith("trace."):
                add(name, unit, [p["layers"][name] for p in traced])
        add("trace.wall_s", "s", [p["wall_s"] for p in traced])
        if plain:
            stats["trace.overhead_s"] = dict(
                stats["trace.wall_s"],
                value=stats["trace.wall_s"]["value"] - stats["wall_s"]["value"],
                q1=None, q3=None)
    names = ([n for n, _, _ in layers.PER_LAYER] if trace
             else [n for n, _ in END_TO_END])
    metrics = {n: {"value": stats[n]["value"], "unit": stats[n]["unit"]}
               for n in names if n in stats}
    return metrics, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="'tiny' shrinks every workload (harness self-test only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "scnls" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'scnls'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    # byte-compile once, so that no pass pays for it inside set-up time
    compileall.compile_dir(ROOT / "src" / "scnls", quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)

    started = time.monotonic()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    run_dir = HERE / "out" / f"{tag}-{stamp}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = environment()
    env["loadavg_before"] = os.getloadavg()

    min_passes = 3 if args.trace else 2
    setups: list[dict] = []
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(passes) > 0
        t0 = time.monotonic()
        for _ in range(0 if args.trace else SETUP_PROBES):
            # set-up samples spread over the run, each with its reference
            left = RUN_LIMIT_S - (time.monotonic() - started)
            ref = ref_launch(left)
            rec = run_pass(args, f"setup{len(setups)}", False, run_dir, left,
                           setup_only=True)
            setups.append(dict(rec, ref_launch_s=ref))
        elapsed = time.monotonic() - started
        rec = run_pass(args, len(passes), traced, run_dir, RUN_LIMIT_S - elapsed)
        durations.append(time.monotonic() - t0)
        passes.append(rec)
        elapsed = time.monotonic() - started
        nxt = max(durations) * (1.25 if args.trace and len(passes) == 1 else 1.0)
        if rec.get("crashed") or elapsed + nxt > RUN_LIMIT_S:
            break
        if len(passes) >= min_passes and elapsed + nxt > args.seconds:
            break
    env["loadavg_after"] = os.getloadavg()

    mark_inconsistent(passes)
    metrics, stats = summarize(passes, setups, bool(args.trace))
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])
    result = {"correct": failed == 0 and len(metrics) == len(
                  layers.PER_LAYER if args.trace else END_TO_END),
              "attempted": attempted, "failed": failed, "metrics": metrics}

    n_traced = sum(1 for p in passes if p["traced"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(passes)} passes ({len(passes) - n_traced} untraced, "
          f"{n_traced} traced) in {time.monotonic() - started:.1f} s; "
          f"{attempted} operations, {failed} failed")
    for name, st in stats.items():
        spread = ("" if st["q1"] is None
                  else f"  q1={st['q1']:.6g} q3={st['q3']:.6g}")
        print(f"  {name:<28} {st['value']:>14.6g} {st['unit']:<6} n={st['n']}{spread}")
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                print(f"  FAILED {op['name']}: {op['why']}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")

    record = {"args": vars(args), "environment": env, "result": result,
              "stats": stats, "setup_samples": setups, "passes": passes,
              "pass_seconds": durations}
    results_dir = HERE / "out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
