"""Fast self-test of the benchmark harness (about half a minute).

    python3 bench/selftest.py

Runs every workload at the ``tiny`` size, untraced and traced, and checks
that the last stdout line is a well-formed result naming every metric of
BENCHMARK.json with its unit; that deliberately wrong outputs (a rate slope
outside its band, a broken phase bound, a non-monotone breakdown, a growing
control, a content hash that changes between passes) count as failures; that
tracing a binding the package no longer has raises; and that the benchmark
refuses to run where the package source is missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def check_benchmark_json(spec: dict) -> None:
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    expect(e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    per = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(per == list(layers.PER_LAYER), "BENCHMARK.json per_layer matches layers.py")
    names = [w["name"] for w in spec["workloads"]]
    expect(tuple(names) == workloads.WORKLOADS, "BENCHMARK.json workloads match")


def check_runs(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"], capture_output=True, text=True, timeout=170)
            tag = f"{workload} trace={trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0")
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{tag}: last line is JSON")
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, f"{tag}: every {group} metric emitted with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()), f"{tag}: numeric values")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: correct, no failed operations")


def check_wrong_outputs() -> None:
    good_row = {"self_check_ok": True, "envelope_ok": True, "self_check_error": 1e-6}
    fit = {"slope": 1.0, "r2": 0.999}
    report = {"rows": [good_row] * 3, "fits": {"two_term_l2": fit}}
    expect(all(ok for ok, _ in workloads.check_sweep_report(report, 3)),
           "in-band sweep report passes")
    for bad_fit, what in (({"slope": 2.0, "r2": 0.999}, "slope outside band"),
                          ({"slope": 1.0, "r2": 0.9}, "noisy fit")):
        doc = {"rows": [good_row] * 3, "fits": {"two_term_l2": bad_fit}}
        expect(not any(ok for ok, _ in workloads.check_sweep_report(doc, 3)),
               f"sweep with {what} fails every row")
    doc = {"rows": [good_row, dict(good_row, self_check_ok=False), good_row],
           "fits": {"two_term_l2": fit}}
    expect([ok for ok, _ in workloads.check_sweep_report(doc, 3)] == [True, False, True],
           "row with a failed self-check fails alone")
    expect(not workloads.check_limit({"status": "completed",
                                      "grad_phi_minus_v_l2_max": 1e-5})[0],
           "limit phase error above 1e-6 fails")
    expect(not workloads.check_limit({"status": "cfl",
                                      "grad_phi_minus_v_l2_max": 0.0})[0],
           "limit run that did not complete fails")
    expect(not workloads.check_blowup({"monotone_in_amplitude": False,
                                       "breakdown_flag": True})[0],
           "non-monotone breakdown fails")
    expect(not workloads.check_focusing({"rates_increase_with_wavenumber": True,
                                         "rows": [{"max_growth_defocusing": 1.5}]})[0],
           "growing defocusing control fails")
    expect(not workloads.check_corrector({"corrected_modulus_gap_max": 1e-6})[0],
           "corrector modulus gap fails")

    # a doctored artifact on disk goes through the same check as a pass
    plan = workloads.make_plan("sweep-1d", 7, "tiny")
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        d = Path(tmp) / "sweep"
        d.mkdir()
        doc = {"rows": [good_row] * 3, "fits": {"two_term_l2": {"slope": 2.0, "r2": 1.0}},
               "content_hash": "sha256:x"}
        (d / "report.json").write_text(json.dumps(doc))
        (d / "sweep.csv").write_text("# content_hash: sha256:y\nepsilon\n")
        ops, _ = workloads.check(plan, Path(tmp), {"sweep": 0})
        expect(len(ops) == 3 and not any(op["ok"] for op in ops),
               "doctored report on disk: every row counted failed")
        ops, _ = workloads.check(plan, Path(tmp), {"sweep": 3})
        expect(not any(op["ok"] for op in ops), "non-zero exit: every row counted failed")

    passes = [{"traced": False, "hashes": {"sweep": {"a": "h1"}},
               "ops": [{"name": "row0", "cmd": "sweep", "ok": True, "why": ""}]},
              {"traced": False, "hashes": {"sweep": {"a": "h2"}},
               "ops": [{"name": "row0", "cmd": "sweep", "ok": True, "why": ""}]}]
    run.mark_inconsistent(passes)
    expect(passes[0]["ops"][0]["ok"] and not passes[1]["ops"][0]["ok"],
           "content hash that changes between passes counts as a failure")


def check_missing_binding() -> None:
    module = types.ModuleType("renamed")
    for how in ("wrap", "count", "count_fft"):
        try:
            getattr(Tracer(), how)(module, "gone", "layer")
            raised = False
        except AttributeError:
            raised = True
        expect(raised, f"Tracer.{how} of a missing binding raises")


def check_refuses_without_source() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(tmp) / HERE.name / "run.py"), "--workload",
             "sweep-1d", "--seed", "1", "--seconds", "1"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "refuses to run (non-zero exit, no result) without src/scnls")


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(spec)
    check_wrong_outputs()
    check_missing_binding()
    check_refuses_without_source()
    check_runs(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
