import hashlib
import json
import os
import subprocess
import sys

import pytest

import robustiso
from robustiso import parse_graph
from robustiso.generators import gen_cfi_pair, save_bundle, gen_blowup_pair


def run_cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "robustiso.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def write(name, text):
        p = root / name
        p.write_text(text)
        paths[name] = str(p)

    write("k3.graph", "n 3\ne 0 1\ne 0 2\ne 1 2\n")
    write("p3.graph", "n 3\ne 0 1\ne 1 2\n")
    write("c6.graph", "n 6\n" + "".join(f"e {i} {(i + 1) % 6}\n" for i in range(6)))
    write(
        "2c3.graph",
        "n 6\ne 0 1\ne 0 2\ne 1 2\ne 3 4\ne 3 5\ne 4 5\n",
    )
    write("bad.graph", "n 2\ne 0 0\n")
    paths["root"] = str(root)
    return paths


def payload(result):
    assert result.stdout.strip(), result.stderr
    return json.loads(result.stdout)


class TestVcCommand:
    def test_neighbourhood_vc(self, files):
        res = run_cli(["vc", "--graph", files["k3.graph"]])
        assert res.returncode == 0
        assert payload(res)["nvc"] == 1

    def test_empty_graph(self, files, tmp_path):
        p = tmp_path / "empty3.graph"
        p.write_text("n 3\n")
        res = run_cli(["vc", "--graph", str(p)])
        assert payload(res)["nvc"] == 0

    def test_mixed_flag(self, files):
        res = run_cli(["vc", "--graph", files["k3.graph"], "--mixed"])
        assert "mvc" in payload(res)

    def test_weak_vc_of_generated_instance(self, files, tmp_path):
        out = tmp_path / "l36.qap"
        gen = run_cli(["gen", "vcgap", "--n", "8", "--out", str(out)])
        assert gen.returncode == 0
        res = run_cli(["vc", "--qap", str(out), "--weak-d", "1"])
        assert payload(res)["weak_vc_le_d"] is True
        res0 = run_cli(["vc", "--qap", str(out), "--weak-d", "0"])
        assert payload(res0)["weak_vc_le_d"] is False


class TestGedCommand:
    def test_reports_oracle_and_gap(self, files):
        res = run_cli(
            ["ged", files["k3.graph"], files["p3.graph"],
             "--eps", "1", "--seed", "7"]
        )
        assert res.returncode == 0
        data = payload(res)
        assert data["oracle_cost"] == "1/1"
        assert data["seed"] == 7
        assert "timing_ms" in data

    def test_requires_seed(self, files):
        res = run_cli(["ged", files["k3.graph"], files["p3.graph"], "--eps", "1"])
        assert res.returncode == 2

    def test_order_mismatch_is_usage_error(self, files):
        res = run_cli(
            ["ged", files["k3.graph"], files["c6.graph"],
             "--eps", "1", "--seed", "1"]
        )
        assert res.returncode == 2
        assert "order" in res.stderr


class TestRobustGiCommand:
    def test_isomorphic_exit_zero(self, files):
        res = run_cli(
            ["robust-gi", files["k3.graph"], files["k3.graph"], "--eps", "1/2"]
        )
        assert res.returncode == 0
        assert payload(res)["answer"] == "isomorphic"

    def test_far_exit_one(self, files):
        res = run_cli(
            ["robust-gi", files["c6.graph"], files["2c3.graph"], "--eps", "1/4"]
        )
        assert res.returncode == 1
        data = payload(res)
        assert data["answer"] == "far"
        assert data["k"] >= 2

    def test_cfi_blowup_below_threshold(self, files, tmp_path):
        blown = gen_blowup_pair(gen_cfi_pair("k4"), 2)
        save_bundle(blown, tmp_path / "bl")
        res = run_cli(
            ["robust-gi", str(tmp_path / "bl" / "G.graph"),
             str(tmp_path / "bl" / "H.graph"),
             "--eps", "1/2", "--strategy", "coloured"]
        )
        assert res.returncode == 0
        assert payload(res)["k"] == 1


class TestWlCommand:
    def test_single_graph_summary(self, files):
        res = run_cli(["wl", files["p3.graph"], "--k", "1"])
        data = payload(res)
        assert data["num_colours"] == 2

    def test_pair(self, files):
        res = run_cli(["wl", files["c6.graph"], files["2c3.graph"], "--k", "2"])
        assert payload(res)["distinguishes"] is True

    def test_budget_exit_three(self, files):
        res = run_cli(
            ["wl", files["c6.graph"], files["2c3.graph"], "--k", "9"],
        )
        assert res.returncode == 3
        assert payload(res)["error"] == "budget-exceeded"

    def test_cfi_prism_output_pinned(self, tmp_path):
        # sha256 of stdout recorded with the tuple-signature k-WL code; the
        # single-graph output names its input, so the paths are relative
        save_bundle(gen_cfi_pair("prism"), str(tmp_path / "cfi"))
        package_root = os.path.dirname(os.path.dirname(robustiso.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        pinned = {
            ("G.graph",): "85473be1e3b0a56be4ece76a36882bb1f344526f368fcea95fc442a5485a4c30",
            ("G.graph", "H.graph"): "c84db9afba831ecd1a575c54a90eca9ab0dd7ca0e9c77f37dd63900233646b48",
        }
        for graphs, digest in pinned.items():
            res = subprocess.run(
                [sys.executable, "-m", "robustiso.cli", "wl", *graphs, "--k", "2"],
                capture_output=True,
                text=True,
                cwd=tmp_path / "cfi",
                env=env,
            )
            assert res.returncode == 0, res.stderr
            assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    def test_env_budget_override(self, files):
        res = run_cli(
            ["wl", files["c6.graph"], files["2c3.graph"], "--k", "3"],
            env={"ROBUSTISO_BUDGET": "10"},
        )
        assert res.returncode == 3


class TestGenCommand:
    def test_cfi_bundle(self, tmp_path):
        out = tmp_path / "cfi"
        res = run_cli(["gen", "cfi", "--base", "k4", "--out", str(out)])
        assert res.returncode == 0
        written = payload(res)["written"]
        assert len(written) == 3
        g = parse_graph((out / "G.graph").read_text())
        assert g.n == 40

    def test_blowup_of_bundle(self, tmp_path):
        run_cli(["gen", "cfi", "--base", "k4", "--out", str(tmp_path / "a")])
        res = run_cli(
            ["gen", "blowup", "--in", str(tmp_path / "a"), "--ell", "2",
             "--out", str(tmp_path / "b")]
        )
        assert res.returncode == 0
        g = parse_graph((tmp_path / "b" / "G.graph").read_text())
        assert g.n == 80

    def test_random_graph_idempotent(self, tmp_path):
        out = tmp_path / "r.graph"
        a = run_cli(["gen", "random", "--n", "10", "--p", "1/2",
                     "--seed", "5", "--out", str(out)])
        assert a.returncode == 0
        first = out.read_text()
        b = run_cli(["gen", "random", "--n", "10", "--p", "1/2",
                     "--seed", "5", "--out", str(out)])
        assert b.returncode == 0
        assert out.read_text() == first

    def test_random_requires_seed(self, tmp_path):
        res = run_cli(["gen", "random", "--n", "5", "--out", str(tmp_path / "x")])
        assert res.returncode == 2


class TestOracleCommand:
    def test_ged(self, files):
        res = run_cli(["oracle", "ged", files["k3.graph"], files["p3.graph"]])
        assert payload(res)["cost"] == "1/1"

    def test_iso(self, files):
        res = run_cli(["oracle", "iso", files["c6.graph"], files["2c3.graph"]])
        assert payload(res)["isomorphic"] is False

    def test_qap(self, tmp_path):
        p = tmp_path / "q.qap"
        p.write_text("qap 2\nq 0 0 1 1 5\n")
        res = run_cli(["oracle", "qap", str(p)])
        assert payload(res)["cost"] == "0/1"


class TestErrorPaths:
    def test_parse_error_exit_two(self, files):
        res = run_cli(["vc", "--graph", files["bad.graph"]])
        assert res.returncode == 2
        assert "self-loop" in res.stderr

    def test_missing_file_exit_two(self):
        res = run_cli(["vc", "--graph", "/nonexistent.graph"])
        assert res.returncode == 2


class TestThreadsFlag:
    def test_accepted_before_subcommand(self, files):
        res = run_cli(["--threads", "2", "vc", "--graph", files["k3.graph"]])
        assert res.returncode == 0
        assert payload(res)["nvc"] == 1


class TestBudgetOverrideAppliesToSolver:
    def test_alpha_budget_from_env(self, files):
        res = run_cli(
            ["ged", files["k3.graph"], files["p3.graph"], "--eps", "1",
             "--seed", "1", "--m", "2"],
            env={"ROBUSTISO_BUDGET": "2"},
        )
        assert res.returncode == 3
        assert payload(res)["error"] == "budget-exceeded"
