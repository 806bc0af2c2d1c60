import json

import pytest

from cjopt.alternating import solve_alternating
from cjopt import cli
from cjopt.cli import main
from cjopt.experiments import SOLVERS
from cjopt.model import channel_inversion_precoder, generate_rayleigh, load_config, perturb_csi
from cjopt.report import make_report

GOOD_CONFIG = """\
n = 8
k = 3
z = 2
l = 6
sigma2_dbm = 0
tau_db = 3
p_tot_dbm = 20
seed = 3
trials = 2
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "good.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


@pytest.fixture
def infeasible_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace("tau_db = 3", "tau_db = 60"))
    return str(path)


class TestSolve:
    def test_success(self, config, capsys):
        assert main(["solve", config]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_every_solver(self, config):
        for solver in ("optimal", "alternating", "fixed-split", "no-jam", "b-zero"):
            assert main(["solve", config, "--solver", solver]) == 0

    def test_table_names_give_strict_json(self, config, capsys):
        for solver in SOLVERS:
            assert main(["solve", config, "--solver", solver, "--json"]) == 0
            rep = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
            assert rep["solver"] == solver and rep["eta"] > 0

    def test_infeasible_exit_code(self, infeasible_config, capsys):
        assert main(["solve", infeasible_config]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_json_round_trip(self, config, capsys):
        assert main(["solve", config, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema"] == 1
        assert rep["status"] == "Converged"
        assert len(rep["p_mw"]) == 3
        assert rep["eta"] > 0

    def test_csi_error_reports_on_true_channels(self, tmp_path, capsys):
        # The jammer designs on perturbed channels; the reported eta must be
        # the one the users and Eve see on the true channels.
        path = tmp_path / "xi.cfg"
        path.write_text(GOOD_CONFIG + "xi2_db = -10\n")
        assert main(["solve", str(path), "--solver", "alternating", "--json"]) == 0
        eta = json.loads(capsys.readouterr().out)["eta"]
        params, extras = load_config(str(path))
        ch = generate_rayleigh(params, gain_db_b=extras["b_gain_db"], rng_seed=extras["seed"])
        pre = channel_inversion_precoder(ch, params.tau)
        ch_design = perturb_csi(ch, extras["xi2"], rng_seed=extras["seed"])
        _, design = solve_alternating(pre, ch_design, params)
        want = make_report("alternating", pre, ch, params, design).eta
        assert eta == pytest.approx(want, rel=1e-12)
        assert abs(eta - design.eta) > 1e-3 * want

    def test_missing_config(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.cfg")]) == 1

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("whatever = 3\n")
        assert main(["solve", str(path)]) == 1


class TestSweep:
    def test_writes_csv(self, config, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", config, "--axis", "Z", "--values", "1,2",
                   "--solvers", "optimal,no_jamming", "--trials", "1",
                   "--out", str(out), "--threads", "1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("axis,axis_value,solver")
        assert len(lines) == 1 + 2 * 2  # header + values x solvers (1 trial)

    def test_deterministic_output(self, config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", config, "--axis", "P_tot_dbm", "--values", "15,20",
                "--solvers", "optimal", "--trials", "2"]
        assert main(args + ["--out", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(b), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_axis_exits_one(self, config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", config, "--axis", "bogus", "--values", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    def test_non_integer_antenna_count_exits_one(self, config, tmp_path, capsys):
        for axis in ("Z", "L"):
            out = tmp_path / f"{axis}.csv"
            assert main(["sweep", config, "--axis", axis, "--values", "1,2.7",
                         "--solvers", "optimal", "--trials", "1", "--out", str(out)]) == 1
            assert "2.7" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_budget_exits_one(self, config, tmp_path, capsys):
        out = tmp_path / "nan.csv"
        assert main(["sweep", config, "--axis", "P_tot_dbm", "--values", "nan",
                     "--solvers", "optimal", "--trials", "1", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_csi_error_exits_one(self, tmp_path, capsys):
        for value in ("nan", "inf"):
            path = tmp_path / f"xi2_{value}.cfg"
            path.write_text(GOOD_CONFIG + f"xi2_db = {value}\n")
            out = tmp_path / f"xi2_{value}.csv"
            assert main(["sweep", str(path), "--axis", "P_tot_dbm", "--values", "20",
                         "--solvers", "optimal", "--trials", "1", "--out", str(out)]) == 1
            assert f"got {value}" in capsys.readouterr().err
            assert not out.exists()

    def test_budget_sweep_monotone(self, config, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["sweep", config, "--axis", "P_tot_dbm", "--values", "15,20,25",
                     "--solvers", "optimal", "--trials", "2", "--out", str(out),
                     "--threads", "1"]) == 0
        import csv as csv_mod
        with open(out) as fh:
            rows = list(csv_mod.DictReader(fh))
        means = {}
        for r in rows:
            means.setdefault(float(r["axis_value"]), []).append(float(r["eta_db"]))
        values = sorted(means)
        curve = [sum(means[v]) / len(means[v]) for v in values]
        assert curve[0] > curve[1] > curve[2]


class TestOracleCommand:
    def test_small_instance(self, capsys):
        rc = main(["oracle", "--n", "4", "--k", "1", "--l", "2", "--seed", "0",
                   "--p-tot-dbm", "60", "--levels", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        gap = float(out.strip().splitlines()[-1].split()[-1])
        assert gap <= 2e-3

    def test_infeasible_instance_skips_the_grid(self, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran on an infeasible instance")

        monkeypatch.setattr(cli, "grid_oracle", no_grid)
        assert main(["oracle", "--tau-db", "60"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_guard(self, capsys):
        assert main(["oracle", "--z", "2"]) == 1
        assert main(["oracle", "--k", "3"]) == 1
        assert main(["oracle", "--l", "5"]) == 1
