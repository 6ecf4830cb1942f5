import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import powergram
from oracles import random_connected_network
from powergram import (
    ModelError,
    ReducedAdmittanceData,
    __version__,
    build_reduced_system,
    ingest,
    laplacian_from_admittance,
    save_network,
    serialize_network,
)
from powergram.cli import main
from powergram.io import bundled_network_path, fmt_float, write_csv_table


def write_doc(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def toy_doc(**overrides):
    doc = {
        "name": "toy",
        "N": 2,
        "M": [0.1, 0.2],
        "D": [0.01, 0.02],
        "L": [[1.0, -1.0], [-1.0, 1.0]],
    }
    doc.update(overrides)
    return doc


class TestIngest:
    def test_bundled_nine_bus(self):
        net = ingest(bundled_network_path("ieee9"))
        assert net.name == "ieee9"
        assert net.N == 3
        assert net.L[0, 0] == 2.1276
        assert net.M[0] == 0.1254
        assert net.D[2] == 0.0048
        with pytest.raises(ValueError):
            bundled_network_path("ieee300")

    def test_laplacian_form(self, tmp_path):
        net = ingest(write_doc(tmp_path, toy_doc()))
        assert net.N == 2
        assert np.array_equal(net.L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert net.admittance is None

    def test_admittance_form(self, tmp_path):
        doc = toy_doc()
        del doc["L"]
        doc["admittance"] = {
            "Y_real": [[0.0, 0.2], [0.2, 0.0]],
            "Y_imag": [[0.0, -1.5], [-1.5, 0.0]],
            "E": [1.0, 1.04],
            "theta_eq": [0.0, 0.05],
        }
        net = ingest(write_doc(tmp_path, doc))
        assert net.admittance is not None
        assert np.max(np.abs(net.L.sum(axis=1))) <= 1e-12
        assert np.array_equal(
            net.L, laplacian_from_admittance(net.admittance)
        )

    def test_rounded_input_is_rebalanced(self, tmp_path):
        # Printed matrices rarely sum to zero exactly; the diagonal is
        # rebuilt from the off-diagonal entries on ingestion.
        doc = toy_doc(L=[[1.0001, -1.0], [-1.0, 0.9999]])
        net = ingest(write_doc(tmp_path, doc))
        assert np.max(np.abs(net.L.sum(axis=1))) <= 1e-15
        assert net.L[0, 1] == -1.0

    def test_visible_asymmetry_warns(self, tmp_path):
        doc = toy_doc(L=[[1.0, -1.001], [-1.0, 1.0005]])
        with pytest.warns(UserWarning, match="asymmetry"):
            ingest(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("name"), "name"),
            (lambda d: d.pop("N"), "N"),
            (lambda d: d.pop("M"), "M"),
            (lambda d: d.update(N=1), "N"),
            (lambda d: d.update(N=True), "N"),
            (lambda d: d.update(M=[0.1]), "M"),
            (lambda d: d.update(M=[0.1, "x"]), r"M\[1\]"),
            (lambda d: d.update(M=[0.1, -0.2]), "inertia"),
            (lambda d: d.update(L=[[1.0, -1.0]]), "L"),
            (lambda d: d.pop("L"), "exactly one"),
            (
                lambda d: d.update(
                    admittance={"Y_real": [[0.0, 0.0], [0.0, 0.0]]}
                ),
                "exactly one",
            ),
        ],
    )
    def test_schema_violations_name_the_field(self, tmp_path, mutate, fragment):
        doc = toy_doc()
        mutate(doc)
        with pytest.raises(ModelError, match=fragment):
            ingest(write_doc(tmp_path, doc))

    def test_positive_off_diagonal_names_entry(self, tmp_path):
        doc = toy_doc(L=[[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ModelError, match=r"l\[1,2\]|l\[2,1\]"):
            ingest(write_doc(tmp_path, doc))

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read"):
            ingest(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ModelError, match="invalid JSON"):
            ingest(bad)

    def test_incomplete_admittance_names_field(self, tmp_path):
        doc = toy_doc()
        del doc["L"]
        doc["admittance"] = {
            "Y_real": [[0.0, 0.0], [0.0, 0.0]],
            "Y_imag": [[0.0, -1.0], [-1.0, 0.0]],
            "E": [1.0, 1.0],
        }
        with pytest.raises(ModelError, match="theta_eq"):
            ingest(write_doc(tmp_path, doc))


class TestSerialization:
    def test_roundtrip_is_lossless(self, tmp_path):
        net = ingest(bundled_network_path("ieee9"))
        out = tmp_path / "copy.json"
        save_network(net, out)
        again = ingest(out)
        assert np.array_equal(net.M, again.M)
        assert np.array_equal(net.D, again.D)
        assert np.array_equal(net.L, again.L)
        assert net.name == again.name

    def test_admittance_data_is_carried_along(self, tmp_path):
        doc = toy_doc()
        del doc["L"]
        doc["admittance"] = {
            "Y_real": [[0.0, 0.2], [0.2, 0.0]],
            "Y_imag": [[0.0, -1.5], [-1.5, 0.0]],
            "E": [1.0, 1.04],
            "theta_eq": [0.0, 0.05],
        }
        net = ingest(write_doc(tmp_path, doc))
        payload = serialize_network(net)
        assert payload["admittance_data"]["E"] == [1.0, 1.04]
        # The derived Laplacian is what a re-ingest reads back.
        out = tmp_path / "roundtrip.json"
        save_network(net, out)
        assert np.array_equal(ingest(out).L, net.L)

    def test_fmt_float_roundtrips(self):
        for x in (0.1, 1.0 / 3.0, 2.1276, -1e-17, 12345.6789012345):
            assert float(fmt_float(x)) == x

    def test_csv_comments_and_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_table(path, ["alpha", "beta"], ["a", "b"], [(1, 0.5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "# alpha"
        assert lines[1] == "# beta"
        assert lines[2] == "a,b"
        assert lines[3] == "1,0.5"


@pytest.fixture()
def out_dir(tmp_path):
    return tmp_path / "out"


class TestCliAnalyze:
    def test_writes_reports(self, out_dir):
        code = main(["analyze", "ieee9", "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "analyze_summary.json").read_text())
        assert summary["version"] == __version__
        assert summary["config"]["metric"] == "logdet"
        assert summary["ecm_ranking"][0] == "3-1"
        assert summary["nnec_ranking"][0] == "3-2"
        first = (out_dir / "ecm_ranking.csv").read_text().splitlines()[0]
        assert first.startswith("# powergram")

    def test_json_format(self, out_dir):
        code = main(
            ["analyze", "ieee9", "--out", str(out_dir), "--format", "json"]
        )
        assert code == 0
        table = json.loads((out_dir / "ecm_ranking.json").read_text())
        assert table["rows"][0]["rank"] == 1
        assert {"rank", "i", "j", "upsilon", "impact"} <= set(table["rows"][0])

    def test_explicit_candidate(self, out_dir):
        code = main(
            ["analyze", "ieee9", "--out", str(out_dir), "--candidate", "3-1,2-1"]
        )
        assert code == 0
        summary = json.loads((out_dir / "analyze_summary.json").read_text())
        assert set(summary["ecm_ranking"]) == {"3-1", "2-1"}

    def test_bad_metric_is_usage_error(self, out_dir, capsys):
        assert main(["analyze", "ieee9", "--metric", "det"]) == 2
        capsys.readouterr()

    def test_missing_network_is_model_error(self, out_dir, capsys):
        assert main(["analyze", "/no/such/file.json", "--out", str(out_dir)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_network_is_model_error(self, tmp_path, out_dir, capsys):
        path = write_doc(tmp_path, toy_doc(M=[0.1, -0.1]))
        assert main(["analyze", str(path), "--out", str(out_dir)]) == 3
        capsys.readouterr()

    def test_unstable_network_is_numerical_error(self, tmp_path, out_dir, capsys):
        # Three generators, one line: disconnected, so the reduced system
        # keeps a marginal mode and the run fails as a numerical error.
        doc = {
            "name": "split",
            "N": 3,
            "M": [0.1, 0.1, 0.1],
            "D": [0.01, 0.01, 0.01],
            "L": [
                [1.0, -1.0, 0.0],
                [-1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0],
            ],
        }
        path = write_doc(tmp_path, doc)
        assert main(["analyze", str(path), "--out", str(out_dir)]) == 4
        assert "error:" in capsys.readouterr().err


class TestCliModify:
    def test_writes_modification_and_network(self, out_dir):
        code = main(
            [
                "modify", "ieee9", "--out", str(out_dir),
                "--metric", "logdet", "--s", "1", "--beta", "1.0",
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "modification.json").read_text())
        assert payload["edge_set"] == ["3-1"]
        assert payload["improvement_pct"] == pytest.approx(3.1898, rel=0.05)
        assert payload["feasible"] is True
        assert "slow_mode_zeta_delta" in payload
        # The emitted modified network re-ingests and matches L_modified.
        modified = ingest(out_dir / "modified_network.json")
        assert np.allclose(
            np.array(payload["L_modified"]), modified.L, atol=1e-12
        )

    def test_sigmoid_search_past_exp_overflow(self, out_dir):
        # This search drives chi * kappa far below -709, where exp(-chi kappa)
        # overflows a double; the run must still finish with a feasible point.
        code = main(
            [
                "modify", "ieee9", "--out", str(out_dir), "--metric", "logdet",
                "--s", "2", "--beta", "0.5", "--param", "sigmoid",
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "modification.json").read_text())
        assert payload["feasible"] is True
        assert np.linalg.norm(payload["gamma"]) <= 0.5 + 1e-9
        assert payload["improvement_pct"] > 0.0

    def test_beta_sweep_outputs(self, out_dir):
        code = main(
            [
                "modify", "ieee9", "--out", str(out_dir),
                "--metric", "logdet", "--s", "1", "--beta", "0.4",
                "--beta-sweep", "4",
            ]
        )
        assert code == 0
        dat = (out_dir / "beta_sweep.dat").read_text().splitlines()
        assert len(dat) == 4
        js = [float(line.split()[1]) for line in dat]
        assert all(b <= a + 1e-9 for b, a in zip(js, js[1:]))
        csv_lines = (out_dir / "beta_sweep.csv").read_text().splitlines()
        assert any(line.startswith("beta,") for line in csv_lines)

    def test_s_out_of_range_is_usage_error(self, out_dir, capsys):
        assert main(["modify", "ieee9", "--out", str(out_dir), "--s", "9"]) == 2
        capsys.readouterr()

    def test_infinite_budget_is_usage_error(self, out_dir, capsys):
        code = main(["modify", "ieee9", "--out", str(out_dir), "--beta", "inf"])
        assert code == 2
        assert "budget" in capsys.readouterr().err
        assert not (out_dir / "modification.json").exists()

    def test_rho_requires_admittance_data(self, out_dir, capsys):
        assert (
            main(["modify", "ieee9", "--out", str(out_dir), "--rho", "0.5"]) == 2
        )
        assert "admittance" in capsys.readouterr().err

    def test_rho_recovers_admittance(self, tmp_path, out_dir):
        doc = toy_doc()
        del doc["L"]
        doc["admittance"] = {
            "Y_real": [[0.0, 0.2], [0.2, 0.0]],
            "Y_imag": [[0.0, -1.5], [-1.5, 0.0]],
            "E": [1.0, 1.04],
            "theta_eq": [0.0, 0.05],
        }
        path = write_doc(tmp_path, doc)
        code = main(
            [
                "modify", str(path), "--out", str(out_dir),
                "--metric", "logdet", "--s", "1", "--beta", "0.5",
                "--rho", "0.3",
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "modification.json").read_text())
        entries = payload["recovered_admittance"]
        assert len(entries) == 1
        assert entries[0]["rho"] == 0.3
        # Substituting the recovered admittance realizes the optimized
        # coupling change on that edge.
        net = ingest(path)
        y_hat = complex(entries[0]["y_real"], entries[0]["y_imag"])
        Y = net.admittance.Y.copy()
        Y[0, 1] = Y[1, 0] = y_hat
        L_new = laplacian_from_admittance(
            ReducedAdmittanceData(
                Y=Y, voltage=net.admittance.voltage, angle=net.admittance.angle
            )
        )
        gamma = payload["gamma"][0]
        assert L_new[1, 0] == pytest.approx(net.L[1, 0] - gamma, abs=1e-9)


class TestCliOracle:
    def test_oracle_summary(self, out_dir):
        code = main(
            [
                "oracle", "ieee9", "--out", str(out_dir),
                "--metric", "neg-trace-inv", "--s", "1",
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "oracle_summary.json").read_text())
        assert payload["combinations"] == 3
        assert payload["j_v"] == 100.0
        assert payload["j_c"] == 100.0
        assert payload["bcs_edges"] == "3-1"

    def test_cap_refusal_exit_code(self, out_dir, capsys):
        code = main(
            ["oracle", "ieee9", "--out", str(out_dir), "--s", "1", "--cap", "2"]
        )
        assert code == 5
        assert "exceed" in capsys.readouterr().err


    def test_infinite_budget_is_usage_error(self, out_dir, capsys):
        code = main(["oracle", "ieee9", "--out", str(out_dir), "--beta", "inf"])
        assert code == 2
        assert "budget" in capsys.readouterr().err


def test_modify_does_not_import_scipy_optimize(tmp_path):
    # The Nelder-Mead search is hand-written to keep this import (and its
    # memory and start-up cost) out of every run; a fresh interpreter is
    # the only place where its absence can be observed.
    script = (
        "import sys\n"
        "import powergram\n"
        "from powergram import cli\n"
        f"code = cli.main(['modify', 'ieee9', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(powergram.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split()[-2:] == ["0", "False"]


class TestCliEnergy:
    def test_analytic_only(self, out_dir):
        code = main(
            ["energy", "ieee9", "--out", str(out_dir), "--samples", "0"]
        )
        assert code == 0
        payload = json.loads((out_dir / "energy_summary.json").read_text())
        assert payload["expected_cost_infinite"] <= payload["expected_cost_finite"]
        assert "sample_mean" not in payload
        assert not (out_dir / "energy_samples.csv").exists()

    def test_sampling_run(self, out_dir):
        code = main(
            [
                "energy", "ieee9", "--out", str(out_dir),
                "--samples", "200", "--seed", "1", "--tf", "12.5",
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "energy_summary.json").read_text())
        assert payload["t_f"] == 12.5
        assert payload["sample_mean"] == pytest.approx(
            payload["expected_cost_finite"],
            abs=4.0 * payload["sample_stderr"],
        )
        assert len((out_dir / "energy_samples.dat").read_text().splitlines()) == 200

    def test_bad_horizon_is_usage_error(self, out_dir, capsys):
        assert main(["energy", "ieee9", "--out", str(out_dir), "--tf", "x"]) == 2
        assert main(["energy", "ieee9", "--out", str(out_dir), "--tf", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("samples", ["1", "-3"])
    def test_bad_sample_count_is_usage_error(self, out_dir, capsys, samples):
        # One sample has no standard error; a negative count means nothing.
        code = main(
            ["energy", "ieee9", "--out", str(out_dir), "--samples", samples]
        )
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not (out_dir / "energy_summary.json").exists()


class TestCliDamping:
    def test_single_network(self, out_dir):
        code = main(["damping", "ieee9", "--out", str(out_dir)])
        assert code == 0
        payload = json.loads((out_dir / "damping_summary.json").read_text())
        assert 0 < payload["slow_mode_zeta"] < 100
        assert "slow_mode_zeta_delta" not in payload

    def test_before_after_composition(self, tmp_path, out_dir):
        # A modify run emits a network file that damping can compare.
        mod_out = tmp_path / "mod"
        assert (
            main(
                [
                    "modify", "ieee9", "--out", str(mod_out),
                    "--metric", "logdet", "--s", "1",
                ]
            )
            == 0
        )
        code = main(
            [
                "damping", "ieee9", "--out", str(out_dir),
                "--modified", str(mod_out / "modified_network.json"),
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "damping_summary.json").read_text())
        assert "slow_mode_zeta_modified" in payload
        assert payload["slow_mode_zeta_delta"] == pytest.approx(
            payload["slow_mode_zeta_modified"] - payload["slow_mode_zeta"]
        )
        table = (out_dir / "damping.csv").read_text()
        assert "original" in table and "modified" in table


class TestOneSchurFactorPerSystem:
    """A CLI answer factors its reduced state matrix exactly once."""

    def test_analyze(self, tmp_path, out_dir, lapack_calls):
        path = tmp_path / "net12.json"
        save_network(random_connected_network(np.random.default_rng(12), 12), path)
        A = build_reduced_system(ingest(path)).A
        lapack_calls.clear()
        assert main(["analyze", str(path), "--out", str(out_dir)]) == 0
        assert len(lapack_calls.dgees) == 1
        assert np.array_equal(lapack_calls.dgees[0], A)
        assert lapack_calls.eigvals == 0

    def test_energy(self, out_dir, lapack_calls):
        A = build_reduced_system(ingest(bundled_network_path("ieee9"))).A
        lapack_calls.clear()
        code = main(["energy", "ieee9", "--out", str(out_dir), "--samples", "100"])
        assert code == 0
        assert len(lapack_calls.dgees) == 1
        assert np.array_equal(lapack_calls.dgees[0], A)
        assert lapack_calls.eigvals == 0


class TestCliTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_candidate_spelling(self, out_dir, capsys):
        code = main(
            ["analyze", "ieee9", "--out", str(out_dir), "--candidate", "3:1"]
        )
        assert code == 2
        assert "--candidate" in capsys.readouterr().err
