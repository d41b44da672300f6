"""The job-summary lines of CI's informational steps, one subcommand each.

    python tools/ci_summary.py {accuracy,fft-calls,demos,unreached,compare,imports,memory} WORK

A subcommand prints its summary lines to stdout; the scnls runs it makes
print to stderr.  It writes the config documents into the work directory
WORK, and every artifact, trace and parent tree under it.  `accuracy` and
`demos` exit with the first nonzero exit code of a CLI run; `compare` runs
the package at the working tree and at its parent commit, HEAD~1.
"""
import collections
import compileall
import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

HEADLINE = {
    "grid": {"dim": 1, "N": 512, "L": 16.0},
    "physics": {"sigma": 2, "epsilon": 0.125,
                "epsilon_list": [0.125, 0.0625, 0.03125, 0.015625, 0.0078125]},
    "time": {"T": 0.25, "dt0": 0.01, "observation_count": 20},
    "initial": {"a0_preset": "gaussian",
                "a0_params": {"width": 1.0, "amplitude_re": 1.0, "amplitude_im": 0.2},
                "a1_preset": "gaussian", "a1_params": {"width": 1.2},
                "phi0_preset": "zero"},
    "output": {"formats": ["csv", "json"]},
}
# a small 2-D sweep whose three rungs (runs and step-doubling checks) make
# one batch of 384 KiB: above numpy's 256 KiB temporary-elision size, where
# a lone run of 64 KiB is not, and each member still has the bits of its
# lone run (test_bitwise_lone_runs_64x64); limit, corrector, blowup and
# focusing-demo run on it too, for the 2-D layout of the limit stages (the
# focusing modes lie inside the 2/3 band |k| <= 21 of its 64 points, the
# default 32 does not)
SWEEP2D = {**HEADLINE,
           "grid": {"dim": 2, "N": 64, "L": 12.0},
           "physics": {"sigma": 2, "epsilon_list": [0.25, 0.125, 0.0625]},
           "time": {"T": 0.02, "dt0": 0.01, "observation_count": 5},
           "focusing": {"wavenumbers": [2, 4, 8]}}


def twin(base: dict, **sections: dict) -> dict:
    """A copy of the config document `base` with keys of its sections replaced."""
    doc = copy.deepcopy(base)
    for name, values in sections.items():
        doc[name].update(values)
    return doc


ARTIFACTS = twin(HEADLINE, output={"formats": ["csv", "json", "snapshots"]})
CONFIGS = {
    "headline": HEADLINE,
    "sweep2d": SWEEP2D,
    # N = 1024: every row passes its check only while the step law's
    # stability cap holds its margin; N = 2048: every row passes under
    # suzuki4; N = 4096: the split step still flags rows (the cap lies
    # below the law's floor there)
    **{f"headline-{n}": twin(HEADLINE, grid={"N": n}) for n in (1024, 2048, 4096)},
    "artifacts": ARTIFACTS,
    # n*dt misses the observation times in the last bit: the fixed-step
    # limit runs there move at roundoff when the node rule changes
    "obs7": twin(ARTIFACTS, time={"T": 0.35, "observation_count": 7}),
    **{f"blowup-sigma{s}": twin(ARTIFACTS, physics={"sigma": s}) for s in (1, 3)},
    "rect2d": twin(SWEEP2D, grid={"L": [12.0, 6.0]}),
    # the size of the bench's sweep-2d, whose sweep rows go in chunks of 2
    # nodes (the other sweeps' rows take one chunk per rung)
    "sweep128": twin(SWEEP2D, grid={"N": 128}, time={"observation_count": 11}),
    # the same sweep with 41 nodes, where the limit nodes' share of memory grows
    "sweep128-obs41": twin(SWEEP2D, grid={"N": 128}, time={"observation_count": 41}),
    # the config of test_guard_failure_exit_3: simulate and conserve exit 3
    "guard": {"grid": {"N": 64, "L": 16.0}, "physics": {"sigma": 2, "epsilon": 1.0},
              "time": {"T": 1.0, "dt0": 0.25, "observation_count": 3},
              "initial": {"a0_preset": "gaussian", "a0_params": {"width": 1.0, "amplitude_re": 2.5}}},
    # the envelope e^(C t) overflows a float (C = 2911 at T = 0.5)
    "envelope": {"grid": {"N": 256, "L": 16.0},
                 "physics": {"sigma": 2, "epsilon_list": [0.25, 0.125]},
                 "time": {"T": 0.5, "dt0": 0.16, "observation_count": 3},
                 "initial": {"a0_preset": "gaussian", "a0_params": {"width": 1.5, "amplitude_re": 2.5}}},
    # demo values whose fields overflow a float: the bump's radius**2 and
    # the background's rho0**sigma
    "blowup-radius": {"blowup": {"radius": 1e300}},
    "focusing-rho0": {"focusing": {"rho0": 1e200}},
}

# compare's runs at both trees: (name, command, config); the config
# "directory" is a directory, which simulate refuses (exit 2)
RUNS = ([(cmd, cmd, "artifacts") for cmd in ("simulate", "limit", "corrector", "sweep",
                                              "conserve", "blowup", "focusing-demo")]
        + [(f"{cmd}-2d", cmd, "sweep2d")
           for cmd in ("sweep", "limit", "corrector", "blowup", "focusing-demo")]
        + [(f"blowup-sigma{s}", "blowup", f"blowup-sigma{s}") for s in (1, 3)]
        + [(f"obs7-{cmd}", cmd, "obs7") for cmd in ("limit", "corrector", "conserve", "sweep")]
        + [(f"rect2d-{cmd}", cmd, "rect2d") for cmd in ("limit", "blowup")]
        + [("sweep-128", "sweep", "sweep128"), ("guard-simulate", "simulate", "guard"),
           ("guard-conserve", "conserve", "guard"), ("sweep-envelope", "sweep", "envelope"),
           ("blowup-radius", "blowup", "blowup-radius"),
           ("focusing-rho0", "focusing-demo", "focusing-rho0"),
           ("simulate-directory", "simulate", "directory")])
LEGEND = """\
artifacts vs parent, headline config (sweep-2d: the small 2-D sweep;
limit-2d, corrector-2d, blowup-2d, focusing-demo-2d: those commands on its config;
blowup-sigma1, blowup-sigma3: blowup at sigma = 1 and 3;
obs7-*: limit, corrector, conserve and sweep at T = 0.35 with 7 observation times;
rect2d-limit, rect2d-blowup: those commands on the 2-D config with L = [12.0, 6.0];
sweep-128: the sweep on the 2-D config at N = 128 with 11 observation times;
guard-simulate, guard-conserve: those commands on a config whose step-doubling check fails;
sweep-envelope: the sweep on a config whose energy envelope overflows a float;
blowup-radius: blowup with radius 1e300, whose square overflows a float;
focusing-rho0: focusing-demo with rho0 1e200, whose rho0**sigma overflows a float;
simulate-directory: simulate given a directory as its config;
report: the report command's stdout on the headline sweep)."""


def run_cli(src: Path, *args, stdout=None) -> int:
    """Exit code of `python -m scnls *args` on the package under `src`; its
    stdout goes to `stdout`, by default to this script's stderr."""
    sys.stderr.flush()
    return subprocess.run([sys.executable, "-m", "scnls", *map(str, args)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          stdout=stdout or sys.stderr, stderr=sys.stderr).returncode


def spy(module, name: str, count) -> None:
    """Make every call of module.<name> call count() first."""
    fn = getattr(module, name)

    def call(*args, **kwargs):
        count()
        return fn(*args, **kwargs)
    setattr(module, name, call)


def accuracy(work: Path) -> int:
    # the limit run's step count and largest CFL number: the CFL rule alone
    # sets its step, whatever the observation count
    runs = [("sweep", cfg, cfg) for cfg in
            ("headline", "headline-1024", "headline-2048", "headline-4096")]
    runs += [("limit", cfg, f"limit-{cfg}") for cfg in ("headline", "sweep2d")]
    for cmd, cfg, out in runs:
        code = run_cli(SRC, cmd, work / f"{cfg}.json", "--out", work / out)
        if code:
            return code
    for n, sub in ((512, "headline"), (1024, "headline-1024"),
                   (2048, "headline-2048"), (4096, "headline-4096")):
        doc = json.loads((work / sub / "report.json").read_text())
        fit = doc["fits"].get("two_term_l2")
        worst = max(row["self_check_error"] for row in doc["rows"])
        print(f"headline sweep at N = {n}: two_term_l2 slope "
              + (f"{fit['slope']:.6f}, r2 {fit['r2']:.4f} on {fit['n']} rows"
                 if fit else "not fitted")
              + f", largest self_check_error {worst:.3g}")
        for row in doc["rows"]:
            print(f"- eps {row['epsilon']:g}: {row['scheme']} "
                  f"nls_dt {row['nls_dt']:.5g}, "
                  f"self_check_error {row['self_check_error']:.3g}, "
                  f"self_check_ok {row['self_check_ok']}")
    for cfg in ("headline", "sweep2d"):
        lim = json.loads((work / f"limit-{cfg}" / "summary.json").read_text())
        print(f"limit on {cfg}.json: {lim['steps']} steps, cfl_max {lim['cfl_max']:.3f}")
    return 0


def fft_calls(work: Path) -> int:
    # by numpy.fft function: the bench's tracer counts only fftn/ifftn, and
    # Grid makes one-axis calls
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scnls.cli

    calls = collections.Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
        spy(np.fft, name, lambda name=name: calls.update([name]))
    with contextlib.redirect_stdout(io.StringIO()):
        code = scnls.cli.main(["sweep", str(work / "headline.json"),
                               "--out", str(work / "fft-calls")])
    counts = ", ".join(f"{n} {c}" for n, c in sorted(calls.items()))
    print(f"numpy.fft calls of the headline sweep (exit {code}): "
          f"{sum(calls.values())} in all; {counts}")
    return 0


def demos(work: Path) -> int:
    # the limit right-hand sides of each limit-suite command are counted by
    # a spy on scnls.limit._rhs, which evolve_limit looks up at every stage
    sys.path.insert(0, str(SRC))
    import scnls.cli
    import scnls.limit

    calls = collections.Counter()
    spy(scnls.limit, "_rhs", lambda: calls.update([cmd]))
    for cmd in ("limit", "corrector", "blowup", "focusing-demo"):
        calls[cmd] = 0
        code = scnls.cli.main([cmd, str(work / "headline.json"),
                               "--out", str(work / f"demo-{cmd}")])
        if code:
            return code
    foc = json.loads((work / "demo-focusing-demo" / "focusing.json").read_text())
    rho0 = foc["config"]["focusing"].get("rho0", 1.0)
    lin = math.sqrt(foc["sigma"] * rho0 ** foc["sigma"])
    rates = ", ".join(f"{r['rate_focusing']:.4f} ({r['xi'] * lin:.4f})"
                      for r in foc["rows"])
    blow = json.loads((work / "demo-blowup" / "blowup.json").read_text())
    stops = ", ".join(f"amp {r['amplitude']}: {r['status']} t={r['t_estimate']}"
                      for r in blow["rows"])
    counts = ", ".join(f"{cmd} {n}" for cmd, n in calls.items())
    print(f"instability demos: focusing rates (linear) {rates}; "
          f"blowup {stops}; limit right-hand sides: {counts}")
    return 0


def trace_into(hits: str) -> None:
    """Trace this process and its threads line by line in the scnls package,
    and write the (file, line) pairs it ran to hits/<pid>.txt at exit."""
    import atexit
    import threading

    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if os.sep + "scnls" + os.sep in frame.f_code.co_filename else None

    def save():
        sys.settrace(None)
        os.makedirs(hits, exist_ok=True)
        with open(os.path.join(hits, f"{os.getpid()}.txt"), "w") as fh:
            fh.writelines(f"{f}\t{n}\n" for f, n in ran)

    sys.settrace(call)
    threading.settrace(call)
    atexit.register(save)


def unreached_lines(src: Path, hits: Path) -> list[str]:
    """The count of the executable lines of the modules in `src` that no
    hits file names, then each of them with its text.  A module's executable
    lines are the line numbers of its code objects (co_lines, recursively)."""
    hit = set()
    for path in hits.glob("*.txt"):
        for ln in path.read_text().splitlines():
            f, n = ln.split("\t")
            hit.add((os.path.realpath(f), int(n)))

    def lines(code):
        out = {n for _, _, n in code.co_lines() if n}
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                out |= lines(c)
        return out

    total, missed = 0, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        exe = lines(compile(text, str(path), "exec"))
        total += len(exe)
        rows, name = text.splitlines(), path.relative_to(src.parents[1]).as_posix()
        missed += [f"- {name}:{n} `{rows[n - 1].strip()}`" for n in sorted(exe)
                   if (os.path.realpath(path), n) not in hit]
    return [f"unreached src lines under Tier-1: {len(missed)} of {total}", *missed]


def unreached(work: Path) -> int:
    # Tier-1 again with a sitecustomize.py first on PYTHONPATH, which traces
    # every process, the tests' CLI subprocesses included (the coverage
    # package is not a dependency); hypothesis runs at a fixed seed, so the
    # count repeats
    trace = work / "trace"
    trace.mkdir()
    (trace / "sitecustomize.py").write_text(
        f"import sys\nsys.path.append({str(ROOT / 'tools')!r})\n"
        f"import ci_summary\nci_summary.trace_into({str(trace / 'hits')!r})\n")
    with open(trace / "pytest.txt", "w") as log:
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        "--hypothesis-seed=0", "-p", "no:cacheprovider"],
                       cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                       env={**os.environ, "PYTHONPATH": f"{trace}{os.pathsep}{SRC}"})
    print((trace / "pytest.txt").read_text().splitlines()[-1], file=sys.stderr)
    count, *missed = unreached_lines(SRC / "scnls", trace / "hits")
    print(count)
    print("\n".join(missed))
    return 0


def numbers(path: Path) -> dict:
    """Every numeric field of a JSON or CSV artifact, by its place."""
    out = {}

    def walk(x, key):
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            out[key] = float(x)
        elif isinstance(x, (dict, list)):
            for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
                walk(v, key + (k,))

    if path.suffix == ".json":
        walk(json.loads(path.read_text()), ())
        return out
    with open(path) as fh:
        for i, row in enumerate(csv.reader(ln for ln in fh if not ln.startswith("#"))):
            for j, cell in enumerate(row):
                with contextlib.suppress(ValueError):
                    out[(i, j)] = float(cell)
    return out


def _diff(x: float, y: float, relative: bool) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / (max(abs(x), abs(y)) if relative else 1.0)


def difference(head: Path, parent: Path) -> str:
    """The largest relative and the largest absolute difference over the
    numeric fields of a CSV or JSON artifact, each with its place: a field
    at roundoff (a momentum of 6e-15, say) reads as a large relative change,
    but its absolute one shows the true scale."""
    a, b = numbers(head), numbers(parent)
    if a.keys() != b.keys():
        return " (the numeric fields differ in number or place)"
    (rkey, rworst), (akey, aworst) = (
        max(((k, _diff(x, b[k], relative)) for k, x in a.items()),
            key=lambda kv: kv[1], default=(None, 0.0))
        for relative in (True, False))
    return (f" (over {len(a)} numeric fields: largest relative difference "
            f"{rworst:.3g} at {rkey}, largest absolute difference {aworst:.3g} at {akey})")


def compare_trees(head: Path, parent: Path) -> list[str]:
    """Each run's exit code (its `<name>.exit` file) at `head` next to the
    one at `parent`, then each other file as same, differs, not at parent or
    not at head."""
    def files(root):
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                      if p.is_file() and not p.name.endswith(".exit"))

    out = ["exit codes, here and at the parent:"]
    for f in sorted(head.glob("*.exit")):
        here = f.read_text().strip()
        there = (parent / f.name).read_text().strip() if (parent / f.name).exists() else "none"
        out.append(f"- {f.stem}: exit {here}, parent {there}: "
                   + ("same" if here == there else "differs"))
    out.append("artifacts:")
    at_head, at_parent = files(head), files(parent)
    for f in at_head:
        if f not in at_parent:
            out.append(f"- {f}: not at parent")
        elif (head / f).read_bytes() == (parent / f).read_bytes():
            out.append(f"- {f}: same")
        else:
            extra = difference(head / f, parent / f) if f.endswith((".csv", ".json")) else ""
            out.append(f"- {f}: differs{extra}")
    return out + [f"- {f}: not at head" for f in at_parent if f not in at_head]


def compare(work: Path) -> int:
    archive = subprocess.run(["git", "archive", "HEAD~1", "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:  # no parent commit
        return 0
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(work / "parent", filter="data")
    for tree, src in (("head", SRC), ("parent", work / "parent" / "src")):
        art = work / f"art-{tree}"
        (art / "report").mkdir(parents=True)
        for name, cmd, cfg in RUNS:
            code = run_cli(src, cmd, work / f"{cfg}.json", "--out", art / name)
            (art / f"{name}.exit").write_text(f"{code}\n")
        with open(art / "report" / "stdout.txt", "w") as fh:
            code = run_cli(src, "report", art / "sweep", stdout=fh)
        (art / "report.exit").write_text(f"{code}\n")
    print(LEGEND)
    print("\n".join(compare_trees(work / "art-head", work / "art-parent")))
    return 0


IMPORT_LAUNCHES = 10


def importtime_self(text: str) -> dict[str, int]:
    """The self time in microseconds of each scnls module that the
    `python -X importtime` report `text` names."""
    out = {}
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[0].strip().isdigit():
            name = parts[2].strip()
            if name == "scnls" or name.startswith("scnls."):
                out[name] = int(parts[0])
    return out


def imports(work: Path) -> int:
    # fresh launches of the compiled tree: the time of `import scnls.cli`
    # after numpy, which the bench's set-up pays, and each scnls module's
    # self time under -X importtime (which slows what it times), both the
    # least over the launches
    compileall.compile_dir(SRC / "scnls", quiet=1)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    timed = ("import time, numpy; t = time.perf_counter(); import scnls.cli; "
             "print(time.perf_counter() - t)")
    best, selfs = math.inf, {}
    for _ in range(IMPORT_LAUNCHES):
        run = subprocess.run([sys.executable, "-c", timed], env=env,
                             capture_output=True, text=True, check=True)
        best = min(best, float(run.stdout))
        run = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import numpy, scnls.cli"], env=env,
                             capture_output=True, text=True, check=True)
        for name, us in importtime_self(run.stderr).items():
            selfs[name] = min(us, selfs.get(name, us))
    print(f"import scnls.cli after import numpy: {best * 1e3:.1f} ms "
          f"(least of {IMPORT_LAUNCHES} launches)")
    print(f"scnls module self times under -X importtime (least of {IMPORT_LAUNCHES}), "
          f"{sum(selfs.values()) / 1e3:.1f} ms in all: "
          + ", ".join(f"{n} {us / 1e3:.2f} ms"
                      for n, us in sorted(selfs.items(), key=lambda kv: -kv[1])))
    return 0


# a fresh process's CLI run, whose stdout goes to stderr, then its exit code
# and its peak resident set (ru_maxrss, KiB on Linux) on the last stdout line
PEAK_CHILD = """\
import contextlib, resource, sys
from scnls.cli import main
with contextlib.redirect_stdout(sys.stderr):
    code = main(sys.argv[1:])
print("exit", code, "ru_maxrss_kib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss(stdout: str) -> tuple[int, float]:
    """The exit code and the peak resident set in MB (10^6 bytes, as the
    bench's peak_rss_mb) that the last line of a PEAK_CHILD run names."""
    _, code, _, kib = stdout.splitlines()[-1].split()
    return int(code), int(kib) * 1024 / 1e6


def memory(work: Path) -> int:
    # each sweep in a fresh process, so no run's peak hides another's; the
    # 41-node twin shows how the peak grows with the limit nodes
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for cfg in ("sweep128", "sweep128-obs41"):
        sys.stderr.flush()
        run = subprocess.run([sys.executable, "-c", PEAK_CHILD, "sweep", work / f"{cfg}.json",
                              "--out", work / f"memory-{cfg}"], env=env,
                             stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        code, mb = peak_rss(run.stdout)
        n_obs = CONFIGS[cfg]["time"]["observation_count"]
        print(f"peak RSS of `scnls sweep` on {cfg}.json (128x128, {n_obs} "
              f"observation times), fresh process: {mb:.2f} MB (exit {code})")
    return 0


SUBCOMMANDS = {"accuracy": accuracy, "fft-calls": fft_calls, "demos": demos,
               "unreached": unreached, "compare": compare, "imports": imports,
               "memory": memory}

if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in SUBCOMMANDS:
        sys.exit(__doc__)
    work = Path(sys.argv[2]).resolve()
    work.mkdir(parents=True, exist_ok=True)
    for name, doc in CONFIGS.items():
        (work / f"{name}.json").write_text(json.dumps(doc))
    (work / "directory.json").mkdir(exist_ok=True)
    sys.exit(SUBCOMMANDS[sys.argv[1]](work))
