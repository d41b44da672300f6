"""tools/ci_summary.py: the config documents, the artifact differ and
exit-code table, the unreached-line count, the import-time parser, the
peak-memory line, and the subcommands ci.yml calls."""
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scnls.config import parse_config
from scnls.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ci_summary", ROOT / "tools" / "ci_summary.py")
ci_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_summary)


def test_ci_calls_every_subcommand_the_script_defines():
    # the informational steps never fail the job, so a call of a renamed
    # subcommand would only drop its lines from the summary
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    called = re.findall(r"tools/ci_summary\.py\s+(\S+)", text)
    assert sorted(called) == sorted(ci_summary.SUBCOMMANDS)


# the reproducers among the configs, refused with the key each names
REFUSED = {"blowup-radius": "blowup.radius", "focusing-rho0": "focusing.rho0"}


@pytest.mark.parametrize("name", [n for n in ci_summary.CONFIGS])
def test_configs_parse(name):
    text = json.dumps(ci_summary.CONFIGS[name])
    if name not in REFUSED:
        parse_config(text)
        return
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == REFUSED[name]


def test_twins_copy_their_base():
    configs = ci_summary.CONFIGS
    assert configs["obs7"]["time"] == {"T": 0.35, "dt0": 0.01, "observation_count": 7}
    assert configs["obs7"]["output"]["formats"] == ["csv", "json", "snapshots"]
    assert configs["blowup-sigma3"]["physics"]["sigma"] == 3
    assert configs["headline"]["physics"]["sigma"] == 2
    assert configs["headline"]["output"]["formats"] == ["csv", "json"]
    assert configs["sweep128"]["grid"] == {"dim": 2, "N": 128, "L": 12.0}
    assert configs["sweep2d"]["grid"]["N"] == 64
    assert configs["sweep128-obs41"]["grid"] == configs["sweep128"]["grid"]
    assert configs["sweep128-obs41"]["time"]["observation_count"] == 41
    assert {r[2] for r in ci_summary.RUNS} <= set(configs) | {"directory"}


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_exit_code_table(tmp_path):
    head = _tree(tmp_path / "head", {"a.exit": "0\n", "b.exit": "3\n", "c.exit": "2\n"})
    parent = _tree(tmp_path / "parent", {"a.exit": "0\n", "b.exit": "4\n"})
    assert ci_summary.compare_trees(head, parent) == [
        "exit codes, here and at the parent:",
        "- a: exit 0, parent 0: same",
        "- b: exit 3, parent 4: differs",
        "- c: exit 2, parent none: differs",
        "artifacts:"]


def test_differ(tmp_path):
    head = _tree(tmp_path / "head", {
        "run/same.json": '{"x": 1.0}',
        # a bool is not a numeric field; the largest relative and absolute
        # differences lie at different places
        "run/moved.json": '{"x": 1.0, "y": [2.0, 1e-15], "ok": true}',
        "run/table.csv": "# hash a\nx,y,z\n1.0,nan,inf\n",
        "run/comment.csv": "# hash a\nx\n1.0\n",
        "run/fields.json": '{"x": 1.0, "y": 2.0}',
        "run/field.snap": "\x01",
        "new.txt": "",
    })
    parent = _tree(tmp_path / "parent", {
        "run/same.json": '{"x": 1.0}',
        "run/moved.json": '{"x": 1.5, "y": [2.0, 3e-15], "ok": false}',
        "run/table.csv": "# hash b\nx,y,z\n1.25,nan,1.0\n",
        "run/comment.csv": "# hash b\nx\n1.0\n",
        "run/fields.json": '{"x": 1.0, "z": 2.0}',
        "run/field.snap": "\x02",
        "old.txt": "",
    })
    assert ci_summary.compare_trees(head, parent) == [
        "exit codes, here and at the parent:",
        "artifacts:",
        "- new.txt: not at parent",
        "- run/comment.csv: differs (over 1 numeric fields: largest relative "
        "difference 0 at (1, 0), largest absolute difference 0 at (1, 0))",
        "- run/field.snap: differs",
        "- run/fields.json: differs (the numeric fields differ in number or place)",
        "- run/moved.json: differs (over 3 numeric fields: largest relative "
        "difference 0.667 at ('y', 1), largest absolute difference 0.5 at ('x',))",
        "- run/same.json: same",
        "- run/table.csv: differs (over 3 numeric fields: largest relative "
        "difference inf at (1, 2), largest absolute difference inf at (1, 2))",
        "- old.txt: not at head"]


def test_unreached_lines(tmp_path):
    src = _tree(tmp_path / "src" / "scnls", {
        "a.py": "x = 1\nif x:\n    y = 2\n",
        "b.py": "def f():\n    return 1\n"})
    hits = _tree(tmp_path / "hits", {
        "1.txt": f"{src / 'a.py'}\t1\n{src / 'a.py'}\t2\n",
        "2.txt": f"{os.path.realpath(src / 'b.py')}\t1\n"})
    assert ci_summary.unreached_lines(src, hits) == [
        "unreached src lines under Tier-1: 2 of 5",
        "- src/scnls/a.py:3 `y = 2`",
        "- src/scnls/b.py:2 `return 1`"]


def test_importtime_self():
    text = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:      2000 |       5000 | numpy
import time:       310 |        410 |     scnls.errors
import time:        95 |         95 |       scnlsx
import time:      1500 |       9000 | scnls
Traceback (most recent call last):
import time: 12 | 12 | scnls.cli
"""
    assert ci_summary.importtime_self(text) == {
        "scnls.errors": 310, "scnls": 1500, "scnls.cli": 12}


def test_peak_rss():
    # the last stdout line of a PEAK_CHILD run; ru_maxrss is in KiB
    assert ci_summary.peak_rss("exit 0 ru_maxrss_kib 62500\n") == (0, 64.0)
    assert ci_summary.peak_rss("a line\nexit 3 ru_maxrss_kib 1000\n") == (3, 1.024)


def test_peak_child_line(tmp_path):
    # a CLI run in a PEAK_CHILD process: report on a missing path exits 2,
    # and the last stdout line names that code and a positive peak
    run = subprocess.run([sys.executable, "-c", ci_summary.PEAK_CHILD, "report",
                          str(tmp_path / "missing")], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ci_summary.SRC)})
    code, mb = ci_summary.peak_rss(run.stdout)
    assert code == 2 and mb > 1.0
