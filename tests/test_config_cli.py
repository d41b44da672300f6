import json
import math
import subprocess
import sys

import numpy as np
import pytest

from scnls import Grid, cli, limit
from scnls.config import parse_config
from scnls.errors import ConfigError
from scnls.grid import MAX_STEPS
from scnls.limit import evolve_limit
from scnls.presets import InitialData
from scnls.sweep import FIT_COLUMNS

from conftest import hash_of_csv, hash_of_json, subprocess_env


# malformed documents that must be rejected as config errors (exit 2), with
# the key the error names and the command that would consume the value
MALFORMED = [
    ('{"blowup": {"amplitudes": "x"}}', "blowup.amplitudes", "blowup"),
    ('{"blowup": {"max_time": -1.0}}', "blowup.max_time", "blowup"),
    ('{"focusing": {"wavenumbers": [1.5, 2.5]}}', "focusing.wavenumbers",
     "focusing-demo"),
    ('{"focusing": {"wavenumbers": []}}', "focusing.wavenumbers",
     "focusing-demo"),
    ('{"initial": {"a0_params": {"amplitude_re": "x"}}}', "initial.a0_preset",
     "simulate"),
    ('{"initial": {"a0_params": {"width": 0}}}', "initial.a0_preset",
     "simulate"),
    ('{"initial": {"phi0_preset": "neg_cos", "phi0_params": {"amplitude": "x"}}}',
     "initial.phi0_preset", "simulate"),
    ('{"initial": {"phi0_preset": "linear", "phi0_params": {"wavenumber": "x"}}}',
     "initial.phi0_preset", "simulate"),
    ('{"output": {"formats": [[1]]}}', "output.formats", "simulate"),
    ('{"time": {"T": Infinity}}', "time.T", "simulate"),
    ('{"time": {"dt0": Infinity}}', "time.dt0", "simulate"),
    ('{"grid": {"L": Infinity}}', "grid.L", "simulate"),
    ('{"physics": {"epsilon": 1e-300}}', "physics.epsilon", "simulate"),
    ('{"initial": {"a0_params": {"center": [0, NaN]}}}', "initial.a0_preset",
     "simulate"),
    # a non-finite width would give a constant amplitude, not an error
    ('{"initial": {"a0_params": {"width": Infinity}}}', "initial.a0_preset",
     "simulate"),
    # over the memory budget: rejected before anything is allocated
    ('{"time": {"observation_count": 1000000000}}', "time.observation_count",
     "simulate"),
    ('{"grid": {"dim": 2, "N": 1048576}}', "grid.N", "simulate"),
    # the breakdown hunt runs on the grid's own cell: no second way to set it
    ('{"blowup": {"grid_length": 16.0}}', "blowup.grid_length", "blowup"),
    # an integer too large for a float is no finite number (not exit 4)
    ('{"time": {"T": 1' + '0' * 400 + '}}', "time.T", "simulate"),
    # no preset takes a mapping: refused by the preset itself
    ('{"initial": {"a0_params": {"center": {"x": NaN}}}}', "initial.a0_preset",
     "simulate"),
    ('{"initial": {"a0_params": {"width": {"x": 1.0}}}}', "initial.a0_preset",
     "simulate"),
    ('{"seed": "x"}', "seed", "simulate"),
]

# the column header of each command's CSV table; the commands take the
# columns from their result records (dataclass field order for the
# invariant tables), so a reordered field would reorder a table
CSV_COLUMNS = {
    "simulate": ("invariants.csv", "time,mass,energy,momentum,pseudo_conformal,"
                 "weighted_mass_center,boundary_tail,support_ok"),
    "limit": ("euler_invariants.csv", "time,mass,energy,momentum,"
              "pseudo_conformal,center_of_mass,total_pressure,boundary_tail,"
              "support_ok"),
    "conserve": ("conservation.csv", "time,nls_mass_drift,nls_energy_drift,"
                 "nls_momentum_drift,nls_pseudo_conformal,euler_mass_drift,"
                 "euler_energy_drift,euler_momentum_drift,"
                 "euler_pseudo_conformal,total_pressure"),
    "blowup": ("blowup.csv", "amplitude,breakdown_flag,t_estimate,"
               "t_uncertainty,status,envelope_ok"),
    "focusing-demo": ("focusing.csv", "mode,xi,rate_focusing,"
                      "max_growth_focusing,rate_defocusing,"
                      "max_growth_defocusing"),
}


# the sweep table's column header (its 4th line, after the comment, config
# and content-hash lines): the keys of its row records, less the JSON-only
# series
SWEEP_COLUMNS = ("epsilon,err_two_term_l2,err_two_term_sup,err_one_term_l2,"
                 "err_one_term_sup,a_eps_hk_max,q_eps_hkm1_max,pos_gap_lsp1_max,"
                 "pos_gap_pow_max,cur_transport_lsp1_max,cur_l1_max,"
                 "mod_energy_0,mod_energy_max,envelope_ok,scheme,nls_dt,"
                 "self_check_dt,self_check_error,self_check_ok")


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config('{"physics": {"sigma": 2, "epsilon": 0.125}}')
        assert cfg.n == (512,)
        assert cfg.length == (16.0,)
        assert cfg.final_time == 0.25
        assert cfg.dt0 == 0.01
        assert cfg.observation_count == 20
        assert cfg.sigma == 2 and cfg.epsilon == 0.125

    def test_huge_cell_parses(self):
        # the step law's stability bound squares dx = L/N: on a cell of
        # 6.9e156 that overflows a float, which dx**2 raised as
        # OverflowError (found by test_config_fuzz), and is inf now
        cfg = parse_config('{"grid": {"L": 6.86479766013061e+156}}')
        assert cfg.length == (6.86479766013061e+156,)

    def test_sigma_zero_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"physics": {"sigma": 0}}')
        assert "physics.sigma" in str(err.value)

    def test_epsilon_above_one_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"physics": {"epsilon": 1.5}}')
        assert "physics.epsilon" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('{"grids": {}}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"grid": {"dx": 0.1}}')
        assert "grid.dx" in str(err.value)

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('{"grid": {"N": 100}}')
        with pytest.raises(ConfigError):
            parse_config('{"grid": {"dim": 3}}')

    def test_epsilon_list_must_decrease(self):
        with pytest.raises(ConfigError):
            parse_config('{"physics": {"epsilon_list": [0.1, 0.2]}}')

    def test_bad_preset_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"initial": {"a0_preset": "vortex"}}')
        assert "a0_preset" in str(err.value)

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_round_trip_identity(self):
        text = json.dumps({
            "grid": {"dim": 1, "N": 64, "L": 8.0},
            "physics": {"sigma": 3, "epsilon": 0.25,
                        "epsilon_list": [0.5, 0.25]},
            "time": {"T": 0.1, "dt0": 0.005, "observation_count": 5},
            "initial": {"a0_preset": "gaussian",
                        "a0_params": {"width": 1.5},
                        "a1_preset": "zero", "phi0_preset": "neg_cos",
                        "phi0_params": {"amplitude": 0.2}},
            "output": {"directory": "out", "formats": ["json"]},
        })
        cfg = parse_config(text)
        again = parse_config(cfg.serialize())
        assert again == cfg
        assert again.content_hash() == cfg.content_hash()

    @pytest.mark.parametrize("text,key,_command", MALFORMED)
    def test_malformed_value_rejected(self, text, key, _command):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == key

    def test_document_seed(self):
        # the document's own seed key, as --seed gives it: echoed only
        cfg = parse_config('{"seed": 7}')
        assert cfg.seed == 7
        assert cfg.effective()["seed"] == 7
        assert parse_config("{}").seed is None

    def test_2d_axis_lists(self):
        cfg = parse_config('{"grid": {"dim": 2, "N": [32, 64], "L": [4.0, 8.0]}}')
        assert cfg.n == (32, 64)
        assert cfg.length == (4.0, 8.0)
        g = cfg.make_grid()
        assert g.dim == 2


class TestPresets:
    """The plane_wave amplitude and the compact_bump phase, built as a
    config builds them."""

    @staticmethod
    def initial(grid: dict, initial: dict):
        return parse_config(json.dumps({"grid": grid, "initial": initial})
                            ).make_initial_data()

    @pytest.mark.parametrize("grid, mode, modes", [
        ({"N": 64, "L": 8.0}, 3, (3,)),
        ({"dim": 2, "N": [32, 16], "L": [8.0, 4.0]}, [2, -1], (2, -1)),
        ({"dim": 2, "N": 32, "L": 8.0}, 3, (3, 3)),  # one mode, both axes
    ], ids=["1d", "2d", "2d-scalar-mode"])
    def test_plane_wave_amplitude(self, grid, mode, modes):
        data = self.initial(grid, {"a0_preset": "plane_wave", "a0_params": {
            "mode": mode, "amplitude_re": 0.6, "amplitude_im": 0.8}})
        g = data.grid
        np.testing.assert_allclose(np.abs(data.a0), abs(0.6 + 0.8j), rtol=1e-14)
        # one lattice mode per axis carries the whole field
        spectrum = np.abs(g.fft(data.a0)) / g.size
        peak = tuple(m % n for m, n in zip(modes, g.shape))
        assert spectrum[peak] == pytest.approx(abs(0.6 + 0.8j), rel=1e-12)
        spectrum[peak] = 0.0
        assert np.max(spectrum) < 1e-12

    @pytest.mark.parametrize("preset", ["gaussian", "compact_bump"])
    def test_scalar_center_serves_every_axis(self, preset):
        # in 2-D one center value is the center on both axes, as one
        # plane_wave mode is the mode on both
        grid = {"dim": 2, "N": 32, "L": 12.0}
        one, both = (self.initial(grid, {"a0_preset": preset,
                                         "a0_params": {"center": center}}).a0
                     for center in (0.5, [0.5, 0.5]))
        assert one.tobytes() == both.tobytes()
        assert np.argmax(np.abs(one)) != np.argmax(np.abs(self.initial(
            grid, {"a0_preset": preset}).a0))  # moved off the origin

    @pytest.mark.parametrize("grid", [{"N": 64, "L": 8.0},
                                      {"dim": 2, "N": 32, "L": 8.0}],
                             ids=["1d", "2d"])
    def test_compact_bump_phase(self, grid):
        data = self.initial(grid, {"phi0_preset": "compact_bump",
                                   "phi0_params": {"radius": 2.0, "amplitude": 0.5}})
        g, phi = data.grid, data.phi0_periodic
        assert np.isrealobj(phi)
        r = np.sqrt(np.sum(g.coords**2, axis=0))
        assert np.all(phi[r >= 2.0] == 0.0)
        assert np.all(phi[r < 2.0] > 0.0)
        assert np.max(phi) == 0.5  # the peak, at the grid point x = 0
        assert data.phi0_wavevector == (0.0,) * g.dim

    @pytest.mark.parametrize("change, key", [
        ({"a0": np.zeros(32, complex)}, "initial.a0"),
        ({"a1": np.zeros((2, 32), complex)}, "initial.a1"),
        ({"phi0_periodic": np.zeros(16)}, "initial.phi0_periodic"),
        ({"phi0_periodic": np.zeros(64, complex)}, "initial.phi0"),
        ({"phi0_wavevector": (0.0, 0.0)}, "initial.phi0"),
    ])
    def test_initial_data_checked(self, change, key):
        # fields end in the grid shape (leading batch axes allowed), the
        # phase is real, and the wavevector has one component per axis
        g = Grid(64, 8.0)
        fields = {"a0": np.ones(g.shape, complex),
                  "a1": np.zeros((3, *g.shape), complex),
                  "phi0_periodic": np.zeros(g.shape), "phi0_wavevector": (0.0,)}
        InitialData(grid=g, **fields)
        with pytest.raises(ConfigError) as err:
            InitialData(grid=g, **{**fields, **change})
        assert err.value.key == key


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "scnls", *args],
        capture_output=True, text=True, cwd=cwd, env=subprocess_env(),
    )


@pytest.fixture()
def tiny_config(tmp_path):
    doc = {
        "grid": {"N": 128, "L": 16.0},
        "physics": {"sigma": 2, "epsilon": 0.25,
                    "epsilon_list": [0.5, 0.25, 0.125]},
        "time": {"T": 0.04, "dt0": 0.01, "observation_count": 5},
        "initial": {"a0_preset": "gaussian",
                    "a0_params": {"width": 1.5, "amplitude_re": 1.0,
                                  "amplitude_im": 0.2},
                    "a1_preset": "gaussian", "a1_params": {"width": 1.8}},
        "output": {"directory": str(tmp_path / "out"),
                   "formats": ["csv", "json", "snapshots"]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, tmp_path / "out"


class TestCliCommands:
    def test_simulate(self, tiny_config, tmp_path):
        path, out = tiny_config
        proc = run_cli(["simulate", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (out / "invariants.csv").exists()
        assert (out / "wavefunction.snap").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mass_drift_rel"] < 1e-12
        assert summary["self_check_ok"] is True
        assert "config_hash" in summary and "content_hash" in summary
        assert summary["content_hash"] == hash_of_json(summary)
        stated, recomputed = hash_of_csv((out / "invariants.csv").read_text())
        assert stated == recomputed

    def test_simulate_records_check_step(self, tiny_config, tmp_path):
        # one step per observation interval, 4 in all: the step-doubling
        # check takes 2 steps of twice the size
        path, out = tiny_config
        proc = run_cli(["simulate", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dt"] == pytest.approx(0.01)
        assert summary["self_check_dt"] == pytest.approx(0.02)

    def test_limit_and_report_artifacts(self, tiny_config, tmp_path):
        path, out = tiny_config
        proc = run_cli(["limit", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grad_phi_minus_v_l2_max"] < 1e-6
        assert summary["power_consistency_banded_max"] < 1e-8
        assert summary["status"] == "completed"
        # the CFL step 0.0347 alone sets the step, whatever the observation
        # interval 0.01: 2 steps of 0.02 over T = 0.04, inside the CFL bound
        assert summary["steps"] == 2
        assert summary["dt"] * summary["steps"] == pytest.approx(0.04)
        assert 0.0 < summary["cfl_max"] <= 0.5

    def test_corrector(self, tiny_config, tmp_path):
        path, out = tiny_config
        proc = run_cli(["corrector", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["corrected_modulus_gap_max"] < 1e-13
        # the pair rides in the limit run: the same 2 joint steps of 0.02
        # as in test_limit_and_report_artifacts
        assert summary["steps"] == 2
        assert summary["dt"] == pytest.approx(0.02)

    @pytest.mark.parametrize("command", ["limit", "corrector"])
    def test_fixed_step_count(self, tmp_path, command):
        # T/dt = 620 while the summed steps stop 1.1e-12 short of T: the
        # summary counts the 620 steps, not a 621st sliver step
        doc = {"grid": {"N": 16, "L": 2 * math.pi}, "physics": {"sigma": 2},
               "time": {"T": 70.175, "observation_count": 5},
               "initial": {"a0_preset": "constant", "a1_preset": "zero"},
               "output": {"directory": str(tmp_path / "out")}}
        path = tmp_path / "steps.json"
        path.write_text(json.dumps(doc))
        proc = run_cli([command, str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["steps"] == 620

    def test_conserve(self, tiny_config, tmp_path):
        path, out = tiny_config
        proc = run_cli(["conserve", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_nls_mass_drift"] < 1e-12
        assert summary["max_euler_mass_drift"] < 1e-8

    def test_artifacts_name_scheme(self, tiny_config):
        # in-process: each wavefunction run of the commands takes the
        # composition nls.pick_scheme gives it, and its artifact says so: on
        # this grid suzuki4 at eps = 0.5, where no check stays under the
        # stability bound, and yoshida4's three substeps below, where both do
        from scnls.cli import main
        path, out = tiny_config
        for command, artifact in (("simulate", "summary.json"),
                                  ("conserve", "summary.json"),
                                  ("sweep", "report.json")):
            assert main([command, str(path), "--out", str(out / command)]) == 0
            doc = json.loads((out / command / artifact).read_text())
            if command == "sweep":
                assert "scheme" not in doc["plan"]
                assert [row["scheme"] for row in doc["rows"]] == [
                    "suzuki4", "yoshida4", "yoshida4"]
            else:
                assert doc["scheme"] == "yoshida4"
                # the step, at least sqrt(0.01) * 0.25 = 0.025, exceeds the
                # observation interval 0.01 (Strang would take 0.0025)
                assert doc["dt"] == pytest.approx(0.01)

    def test_sweep_and_report(self, tiny_config, tmp_path):
        path, out = tiny_config
        proc = run_cli(["sweep", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# epsilon-sweep result; columns: " + SWEEP_COLUMNS
        assert lines[3] == SWEEP_COLUMNS
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["rows"]) == 3
        rep = run_cli(["report", str(out)], tmp_path)
        assert rep.returncode == 0, rep.stderr
        assert "fit two_term_l2" in rep.stdout
        # each fit line ends in its row count, as the report holds it
        fit_lines = [ln for ln in rep.stdout.splitlines() if ln.startswith("fit ")]
        assert fit_lines and len(fit_lines) == len(doc["fits"])
        for line in fit_lines:
            name = line.split(":")[0].removeprefix("fit ")
            assert line.split()[4:5] == [f"n={doc['fits'][name]['n']}"]

    @pytest.mark.parametrize("command", sorted(CSV_COLUMNS))
    def test_csv_columns(self, tiny_config, tmp_path, command):
        from scnls.cli import main
        path, out = tiny_config
        doc = json.loads(path.read_text())
        doc["blowup"] = {"max_time": 1.0, "amplitudes": [0.5]}
        doc["focusing"] = {"wavenumbers": [2], "window": 0.05}
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 0
        name, columns = CSV_COLUMNS[command]
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "# columns: " + columns
        assert lines[3] == columns

    # the files each command writes with no output format asked for: the
    # summaries and demo reports, always written
    BARE_FILES = {
        "simulate": ["effective_config.json", "summary.json"],
        "limit": ["effective_config.json", "summary.json"],
        "corrector": ["effective_config.json", "summary.json"],
        "sweep": ["effective_config.json"],
        "conserve": ["effective_config.json", "summary.json"],
        "blowup": ["blowup.json", "effective_config.json"],
        "focusing-demo": ["effective_config.json", "focusing.json"],
    }
    # the file each format alone adds to them: a CSV table with csv, the
    # sweep report with json, the snapshots with snapshots; none elsewhere
    FORMAT_FILES = {
        "simulate": {"csv": "invariants.csv", "snapshots": "wavefunction.snap"},
        "limit": {"csv": "euler_invariants.csv", "snapshots": "limit.snap"},
        "corrector": {"snapshots": "corrector.snap"},
        "sweep": {"csv": "sweep.csv", "json": "report.json"},
        "conserve": {"csv": "conservation.csv"},
        "blowup": {"csv": "blowup.csv"},
        "focusing-demo": {"csv": "focusing.csv"},
    }

    @staticmethod
    def _files(tiny_config, tmp_path, command, formats) -> list[str]:
        path, _ = tiny_config
        doc = json.loads(path.read_text())
        doc["output"]["formats"] = formats
        doc["blowup"] = {"max_time": 1.0, "amplitudes": [0.5]}
        doc["focusing"] = {"wavenumbers": [2], "window": 0.05}
        path.write_text(json.dumps(doc))
        out = tmp_path / "bare"
        assert cli.main([command, str(path), "--out", str(out)]) == 0
        return sorted(p.name for p in out.iterdir())

    @pytest.mark.parametrize("command", sorted(BARE_FILES))
    def test_no_formats_no_tables(self, tiny_config, tmp_path, command):
        # "formats": [] asks for no CSV table, no sweep report and no
        # snapshots
        assert self._files(tiny_config, tmp_path, command, []) \
            == self.BARE_FILES[command]

    @pytest.mark.parametrize("fmt", ["csv", "json", "snapshots"])
    @pytest.mark.parametrize("command", sorted(BARE_FILES))
    def test_one_format_file_set(self, tiny_config, tmp_path, command, fmt):
        added = self.FORMAT_FILES[command].get(fmt)
        expected = sorted(self.BARE_FILES[command] + ([added] if added else []))
        assert self._files(tiny_config, tmp_path, command, [fmt]) == expected

    def test_simulate_zero_data(self, tmp_path):
        # u0 = 0 stays 0: the step-doubling check passes at error 0, the
        # drifts are 0 and the support tail of no mass is 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "grid": {"N": 64, "L": 16.0},
            "time": {"T": 0.04, "observation_count": 3},
            "initial": {"a0_preset": "zero"}}))
        out = tmp_path / "zero"
        assert cli.main(["simulate", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["self_check_ok"] is True
        assert summary["self_check_error"] == 0.0
        assert summary["mass_drift_rel"] == summary["energy_drift_rel"] == 0.0
        lines = (out / "invariants.csv").read_text().splitlines()
        columns = lines[3].split(",")
        for row in lines[4:]:
            cells = dict(zip(columns, row.split(",")))
            assert float(cells["boundary_tail"]) == 0.0
            assert cells["support_ok"] == "true"

    def test_sweep_shared_phase_ratio_exit_2(self, tmp_path, capsys):
        # a linear phase is snapped once, at the largest epsilon, for the
        # whole ladder: 0.3/0.2 is no integer ratio
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({
            "grid": {"N": 64, "L": 16.0},
            "physics": {"epsilon_list": [0.3, 0.2, 0.1]},
            "time": {"T": 0.04, "observation_count": 3},
            "initial": {"phi0_preset": "linear"}}))
        out = tmp_path / "linear"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["key"] == "physics.epsilon_list"
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.json"]

    def test_report_without_rows(self, tmp_path, capsys):
        # a sweep report with no rows prints its header and fits, and no
        # empty table
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            "plan": {"sigma": 2, "final_time": 0.1}, "k_order": 2, "rows": [],
            "fits": {"two_term_l2": {"slope": 1.0, "r2": 1.0, "n": 3}}}))
        assert cli.main(["report", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("sweep report: sigma=2")
        assert lines[1].startswith("k_order=2")
        assert lines[2:] == ["fit two_term_l2: slope=1.0000 r2=1.00000 n=3"]

    def test_usage_error_exit_2(self, capsys):
        # one parser per process: every call gives argparse's usage error
        # with exit 2, the same text each time
        assert cli._parser() is cli._parser()
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweeep", "config.json"])
            assert exc.value.code == 2
            texts.append(capsys.readouterr().err)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: scnls [-h]")
        assert "invalid choice: 'sweeep'" in texts[0]
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep"])
        assert exc.value.code == 2
        assert "the following arguments are required: config" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"physics": {"sigma": 0}}')
        proc = run_cli(["simulate", str(bad)], tmp_path)
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["key"] == "physics.sigma"

    @pytest.mark.parametrize("text,key,command", MALFORMED)
    def test_malformed_config_exit_2(self, tmp_path, text, key, command):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = run_cli([command, str(bad), "--out", str(tmp_path / "o")],
                       tmp_path)
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["key"] == key

    def test_limit_over_memory_budget_exit_2(self, tmp_path):
        # the config parses (20 snapshots of 65,536 points fit the budget),
        # but the focusing run batches its 24 wavenumbers: 36 nodes x 24
        # members x 48 B x 65,536 points, 2.7 GB, refused before the run
        # starts
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({"grid": {"N": 65536}, "focusing": {
            "wavenumbers": list(range(1, 25))}}))
        proc = run_cli(["focusing-demo", str(bad), "--out",
                        str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["key"] == "grid.N"

    def test_limit_over_step_budget_exit_2(self, tmp_path):
        # the config parses (its wavefunction runs take 4,000,013 steps at
        # most), but its limit run plans 23,057,061 CFL steps, over
        # grid.MAX_STEPS: refused before the first step, not after hours
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps({
            "grid": {"N": 2048, "L": 16.0},
            "physics": {"epsilon": 0.125, "epsilon_list": [1.0, 0.5, 0.25]},
            "time": {"T": 50000.0, "observation_count": 20},
            "initial": {"a0_preset": "gaussian",
                        "a0_params": {"width": 1.0, "amplitude_re": 1.0,
                                      "amplitude_im": 0.2}}}))
        proc = subprocess.run(
            [sys.executable, "-m", "scnls", "limit", str(bad), "--out",
             str(tmp_path / "o")], capture_output=True, text=True,
            cwd=tmp_path, env=subprocess_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["key"] == "time.T"

    @pytest.mark.parametrize("command,doc,key", [
        # rho0 = 1e6 makes the CFL step 1.42e-8: the window of 0.35 needs
        # more than grid.MAX_STEPS of them
        ("focusing-demo", {"grid": {"N": 128}, "focusing": {"rho0": 1e6}},
         "focusing.window"),
        # the CFL step 0.0361 needs more than grid.MAX_STEPS to reach 1e8
        ("blowup", {"blowup": {"max_time": 1e8}}, "blowup.max_time"),
    ])
    def test_demo_over_step_budget_names_its_key(self, tmp_path, monkeypatch,
                                                 capsys, command, doc, key):
        # the demos read no time.T: the limit run's refusal of their
        # horizon comes under the key that sets it, before any step
        calls = []
        rhs = limit._rhs
        monkeypatch.setattr(limit, "_rhs",
                            lambda *a, **k: calls.append(1) or rhs(*a, **k))
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["key"] == key
        assert f"more than {MAX_STEPS} steps" in record["error"]["message"]
        assert calls == []

    @pytest.mark.parametrize("command,text", [
        ("limit", '{"initial": {"a0_params": {"amplitude_re": 1e200}}}'),
        ("corrector", '{"initial": {"a0_params": {"amplitude_re": 1e200}}}'),
        ("blowup", '{"blowup": {"amplitudes": [1e80]}}'),
    ])
    def test_overflowing_amplitude_exit_2(self, tmp_path, command, text):
        # a^sigma overflows, so the initial wave speed is not finite and no
        # CFL step exists: a config error, not a NaN step count
        doc = json.loads(text) | {"grid": {"N": 64}}
        bad = tmp_path / "amp.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli([command, str(bad), "--out", str(tmp_path / "o")],
                       tmp_path)
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["key"] == "initial.a0"

    @pytest.mark.parametrize("doc,key", [
        # mode 22 lies above the 2/3 band N // 3 = 21, so the run starts
        # with the perturbation projected away
        ({"grid": {"N": 64}, "focusing": {"wavenumbers": [4, 20, 21, 22]}},
         "focusing.wavenumbers"),
        # the demo takes its step from the CFL rule: there is no dt
        ({"focusing": {"dt": 0.01}}, "focusing.dt"),
        # the ill-posed growth raises the wave speed tenfold at t = 0.3920
        # of the window, and the run stops with status dt_floor
        ({"focusing": {"window": 1.0}}, "focusing.window"),
        # the sigma = 1 run completes the window, but its perturbation
        # outgrows the background, where rates 35.9, 28.0, 19.4, -29.1
        # stood for the linear 4, 8, 16, 32
        ({"physics": {"sigma": 1}, "focusing": {"window": 1.0}},
         "focusing.window"),
        # windows far inside the first adaptive CFL step (7.1e-3 at
        # N = 512): one failed the rate fit with exit 4, the other fitted
        # rates of -1e85
        ({"focusing": {"window": 1e-300}}, "focusing.window"),
        ({"focusing": {"window": 1e-100}}, "focusing.window"),
    ])
    def test_unmeasurable_focusing_exit_2(self, tmp_path, doc, key):
        # the band and window cases used to write rows and exit 0
        bad = tmp_path / "focusing.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli(["focusing-demo", str(bad), "--out", str(tmp_path / "o")],
                       tmp_path)
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["key"] == key
        if key == "focusing.window":
            # a window inside the first CFL step is refused before the run,
            # the stopped sigma = 2 run names its status, the completed
            # sigma = 1 run the background its perturbation reached
            want = ("first CFL step" if doc["focusing"]["window"] < 1e-3
                    else "|a_bg|" if "physics" in doc else "status 'dt_floor'")
            assert want in record["error"]["message"]

    @pytest.mark.parametrize("name,text", [
        ("missing.json", None),
        ("text.json", "not json"),
        ("list.json", "[1, 2]"),
        ("row.json", '{"rows": [{"epsilon": 0.125}]}'),
        ("fit.json", '{"fits": {"two_term_l2": {"slope": 1.0, "r2": 1.0}}}'),
        ("bool.json", '{"fits": {"two_term_l2": {"slope": true, "r2": false, "n": 3}}}'),
        ("eps.json", '{"fits": {"two_term_l2": {"slope": 1.0, "r2": 1.0, "n": 3, '
                     '"epsilon_list": "0.5"}}}'),
        ("why.json", '{"fits_left_out": {"two_term_l2": 2}}'),
    ])
    def test_bad_report_exit_2(self, tmp_path, name, text):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        proc = run_cli(["report", str(path)], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""  # rejected before anything is printed
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["key"] == "<report>"

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_missing_file_exit_2(self, tmp_path, kind):
        # a config that cannot be read as text is a config error, not an
        # internal one
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"grid": "\xff\xfe"}')
        proc = run_cli(["simulate", str(path)], tmp_path)
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["key"] == "<document>"

    @pytest.mark.parametrize("command", ["simulate", "conserve"])
    def test_guard_failure_exit_3(self, tmp_path, command):
        # a deliberately huge base step trips the step-doubling guard: the
        # solver flags the run, and the command turns the flag into exit 3
        # before it writes any artifact
        doc = {
            "grid": {"N": 64, "L": 16.0},
            "physics": {"sigma": 2, "epsilon": 1.0},
            "time": {"T": 1.0, "dt0": 0.25, "observation_count": 3},
            "initial": {"a0_preset": "gaussian",
                        "a0_params": {"width": 1.0, "amplitude_re": 2.5}},
            "output": {"directory": str(tmp_path / "out3")},
        }
        path = tmp_path / "guard.json"
        path.write_text(json.dumps(doc))
        proc = run_cli([command, str(path)], tmp_path)
        assert proc.returncode == 3, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "numerical_guard"
        message = record["error"]["message"]
        assert "step-doubling self-check failed" in message
        assert "eps=1.0" in message and "dt=" in message
        assert sorted(p.name for p in (tmp_path / "out3").iterdir()) == \
            ["effective_config.json"]

    def test_overflowing_envelope_sweep_completes(self, tmp_path):
        # the limit run's Gronwall constant (about 2.9e3) makes e^(C t)
        # overflow a float at t = 0.25: an infinite envelope bound, which
        # every row keeps, where math.exp raised (exit 4, no report)
        doc = {
            "grid": {"N": 256, "L": 16.0},
            "physics": {"sigma": 2, "epsilon_list": [0.25, 0.125]},
            "time": {"T": 0.5, "dt0": 0.16, "observation_count": 3},
            "initial": {"a0_preset": "gaussian",
                        "a0_params": {"width": 1.5, "amplitude_re": 2.5}},
            "output": {"directory": str(tmp_path / "out")},
        }
        path = tmp_path / "envelope.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["sweep", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["gronwall_constant"] * 0.25 > math.log(sys.float_info.max)
        assert [r["envelope_ok"] for r in report["rows"]] == [True, True]
        assert [r["self_check_ok"] for r in report["rows"]] == [False, False]
        assert report["fits"] == {}
        assert sorted(report["fits_left_out"]) == sorted(FIT_COLUMNS)

    def test_refined_grid_simulate_passes(self, tmp_path):
        # the README config at N = 2048 and eps = 1/32, where yoshida4's
        # check stepped past the stability bound and simulate exited 3
        # (|u_dt - u_2dt| = 1.5): suzuki4's run passes its check
        from scnls.cli import main
        doc = {
            "grid": {"dim": 1, "N": 2048, "L": 16.0},
            "physics": {"sigma": 2, "epsilon": 0.03125},
            "time": {"T": 0.25, "dt0": 0.01, "observation_count": 20},
            "initial": {"a0_preset": "gaussian",
                        "a0_params": {"width": 1.0, "amplitude_re": 1.0,
                                      "amplitude_im": 0.2},
                        "a1_preset": "gaussian", "a1_params": {"width": 1.2},
                        "phi0_preset": "zero"},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["json"]},
        }
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["scheme"] == "suzuki4"
        assert summary["self_check_ok"]
        assert summary["self_check_error"] < 1e-5

    def test_report_names_fit_rows_and_left_out_fits(self, tiny_config,
                                                      monkeypatch, capsys):
        # every fit records the epsilons of its rows, and a fit left out
        # its reason; a sweep whose rows are all flagged (at a tolerance
        # of 0) still exits 0, and scnls report prints both records
        from scnls import cli, nls
        path, out = tiny_config
        assert cli.main(["sweep", str(path), "--out", str(out / "ok")]) == 0
        monkeypatch.setattr(nls, "SELF_CHECK_FACTOR", 0.0)
        assert cli.main(["sweep", str(path), "--out", str(out / "flagged")]) == 0
        ok = json.loads((out / "ok" / "report.json").read_text())
        flagged = json.loads((out / "flagged" / "report.json").read_text())
        assert ok["fits_left_out"] == {} and flagged["fits"] == {}
        why = "0 of 3 rows pass their checks; a fit needs 3"
        assert flagged["fits_left_out"] == dict.fromkeys(ok["fits"], why)
        assert all(fit["epsilon_list"] == [0.5, 0.25, 0.125]
                   for fit in ok["fits"].values())
        capsys.readouterr()
        assert cli.main(["report", str(out / "ok")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "fit two_term_l2:" in "\n".join(lines)
        assert all(ln.endswith(" on eps 0.5, 0.25, 0.125")
                   for ln in lines if ln.startswith("fit "))
        assert cli.main(["report", str(out / "flagged")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(ln.startswith("fit ") for ln in lines)
        assert f"no fit two_term_l2: {why}" in lines

    def test_step_past_final_time_runs(self, tmp_path):
        # the Strang-equivalent step dt0*eps = 0.00125 exceeds T; the
        # yoshida4 run cuts its step to the observation interval
        doc = {
            "grid": {"N": 64, "L": 16.0},
            "physics": {"sigma": 2, "epsilon": 0.125},
            "time": {"T": 0.001, "dt0": 0.01, "observation_count": 3},
            "output": {"directory": str(tmp_path / "outT")},
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["simulate", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "outT" / "summary.json").read_text())
        assert summary["dt"] == pytest.approx(0.0005)

    def test_conserve_plane_wave_drifts(self, tmp_path):
        # exact plane-wave pair: both systems hold their invariants to roundoff
        doc = {
            "grid": {"N": 64, "L": 6.283185307179586},
            "physics": {"sigma": 2, "epsilon": 0.25},
            "time": {"T": 0.05, "dt0": 0.01, "observation_count": 4},
            "initial": {"a0_preset": "constant", "a0_params": {"value": 0.9},
                        "phi0_preset": "linear",
                        "phi0_params": {"wavenumber": 1.0}},
            "output": {"directory": str(tmp_path / "outpw")},
        }
        path = tmp_path / "pw.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["conserve", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "outpw" / "summary.json").read_text())
        assert summary["max_nls_mass_drift"] < 1e-12
        assert summary["max_nls_momentum_drift"] < 1e-12
        assert summary["max_euler_mass_drift"] < 1e-12
        assert summary["max_euler_momentum_drift"] < 1e-12

    def test_internal_error_exit_4(self, tmp_path):
        # output directory nested under a regular file cannot be created
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        doc = {"physics": {"sigma": 2, "epsilon": 0.25},
               "grid": {"N": 64}, "time": {"T": 0.02, "observation_count": 3},
               "output": {"directory": str(blocker / "out")}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["simulate", str(path)], tmp_path)
        assert proc.returncode == 4, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "internal"

    def test_blowup_command(self, tmp_path):
        doc = {
            "grid": {"N": 256, "L": 20.0},
            "physics": {"sigma": 1},
            "blowup": {"max_time": 12.0, "amplitudes": [0.6, 1.2],
                       "radius": 3.0},
            "output": {"directory": str(tmp_path / "outb")},
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["blowup", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc_out = json.loads((tmp_path / "outb" / "blowup.json").read_text())
        assert doc_out["breakdown_flag"] is True
        assert doc_out["monotone_in_amplitude"] is True
        assert all(np.isfinite(r["t_estimate"]) for r in doc_out["rows"])

    def test_blowup_stops_at_the_monitors_crossing(self, tmp_path,
                                                   monkeypatch):
        # the sigma = 3 bumps at N = 512 cross the breakdown threshold but
        # never 40x their gradient scale: each run stops at the step where
        # blowup_monitor declares breakdown, not at max_time as "completed"
        runs = []

        def recorded(*args, **kwargs):
            runs.append(evolve_limit(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "evolve_limit", recorded)
        cli.cmd_blowup(parse_config('{"physics": {"sigma": 3}}'), tmp_path)
        rows = json.loads((tmp_path / "blowup.json").read_text())["rows"]
        assert [r["status"] for r in rows] == ["grad_stop", "grad_stop"]
        for row, traj in zip(rows, runs, strict=True):
            assert row["t_estimate"] == traj.step_times[-1]

    def test_blowup_takes_per_axis_lengths(self, tmp_path, monkeypatch):
        # the breakdown hunt runs on the grid's own cell, 12 x 6 here, not
        # a square on its first length
        runs = []

        def recorded(*args, **kwargs):
            runs.append(evolve_limit(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "evolve_limit", recorded)
        cli.cmd_blowup(parse_config(json.dumps({
            "grid": {"dim": 2, "N": 64, "L": [12.0, 6.0]},
            "blowup": {"amplitudes": [1.0], "radius": 2.0}})), tmp_path)
        assert [traj.grid.lengths for traj in runs] == [(12.0, 6.0)]

    def test_focusing_defaults_complete_on_fine_grids(self, tmp_path):
        # the demo steps at its CFL bound, so the default window completes
        # at N = 1024, where a fixed step of 2e-3 stopped at t = 0.338; the
        # rates are the linear ones, xi*sqrt(sigma*rho0^sigma)
        path = tmp_path / "focusing.json"
        path.write_text(json.dumps({"grid": {"N": 1024},
                                    "output": {"directory": str(tmp_path / "o")}}))
        proc = run_cli(["focusing-demo", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc_out = json.loads((tmp_path / "o" / "focusing.json").read_text())
        assert doc_out["rates_increase_with_wavenumber"] is True
        for row in doc_out["rows"]:
            assert row["rate_focusing"] == pytest.approx(
                row["xi"] * math.sqrt(2.0), rel=0.02)
            assert 0.8 <= row["max_growth_defocusing"] <= 1.2

    def test_focusing_command(self, tmp_path):
        doc = {
            "grid": {"N": 128, "L": 16.0},
            "physics": {"sigma": 1},
            "focusing": {"wavenumbers": [2, 4, 8], "window": 0.4},
            "output": {"directory": str(tmp_path / "outf")},
        }
        path = tmp_path / "focusing.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["focusing-demo", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc_out = json.loads((tmp_path / "outf" / "focusing.json").read_text())
        assert doc_out["rates_increase_with_wavenumber"] is True
        for row in doc_out["rows"]:
            assert 0.8 <= row["max_growth_defocusing"] <= 1.2

    def test_seed_echoed_only(self, tiny_config, tmp_path):
        # --seed goes into the effective config and the summary's config,
        # and so into config_hash; nothing computed changes
        path, _ = tiny_config
        summaries = {}
        for seed, args in ((None, []), (7, ["--seed", "7"])):
            out = tmp_path / f"seed-{seed}"
            assert cli.main(["limit", str(path), "--out", str(out), *args]) == 0
            echoed = json.loads((out / "effective_config.json").read_text())
            assert echoed["seed"] == seed
            summaries[seed] = json.loads((out / "summary.json").read_text())
        plain, seeded = summaries[None], summaries[7]
        assert seeded["config"] == {**plain["config"], "seed": 7}
        assert seeded["config_hash"] != plain["config_hash"]
        hashed = ("config", "config_hash", "content_hash")
        assert ({k: v for k, v in seeded.items() if k not in hashed}
                == {k: v for k, v in plain.items() if k not in hashed})

    def test_effective_config_written(self, tiny_config, tmp_path):
        path, out = tiny_config
        proc = run_cli(["simulate", str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        echoed = json.loads((out / "effective_config.json").read_text())
        assert echoed["physics"]["sigma"] == 2
        assert echoed["grid"]["N"] == [128]
