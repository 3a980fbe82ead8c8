import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import robustiso
import robustiso.cli
from conftest import random_weighted_graph
from robustiso.generators import gen_blowup_pair, gen_cfi_pair, gen_random_graph, save_bundle
from robustiso.graphs import parse_graph, serialize_graph
from robustiso.qap import ged_to_qap, serialize_qap, weighted_ged_to_qap


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
    write("small.qap", "qap 3\nq 0 0 1 1 2\nq 1 1 0 0 -1/2\n")
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

    def test_order_zero_weighted_matches_unweighted(self, tmp_path):
        p = tmp_path / "empty0.graph"
        p.write_text("n 0\n")
        assert payload(run_cli(["vc", "--graph", str(p)]))["nvc"] == -1
        assert payload(run_cli(["vc", "--graph", str(p), "--weighted"]))["wvc"] == -1

    def test_mixed_flag(self, files):
        res = run_cli(["vc", "--graph", files["k3.graph"], "--mixed"])
        assert "mvc" in payload(res)

    def test_node_budget_ends_a_long_search(self, tmp_path):
        # the unbounded search on this graph builds 146,771 nodes
        path = tmp_path / "gnp160.graph"
        path.write_text(serialize_graph(gen_random_graph(160, seed=1)))
        start = time.monotonic()
        res = run_cli(["vc", "--graph", str(path)], env={"ROBUSTISO_BUDGET": "1000"})
        assert res.returncode == 3
        assert payload(res)["attempted"] == 1001
        assert time.monotonic() - start < 20

    @pytest.mark.parametrize("args", [
        ["--graph", "k3.graph"], ["--graph", "k3.graph", "--mixed"],
        ["--graph", "k3.graph", "--weighted"], ["--qap", "small.qap"],
    ])
    def test_every_search_takes_the_node_budget(self, files, args):
        argv = ["vc"] + [files.get(a, a) for a in args]
        assert run_cli(argv).returncode == 0
        res = run_cli(argv, env={"ROBUSTISO_BUDGET": "0"})
        assert res.returncode == 3
        assert payload(res)["attempted"] == 1

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

    @pytest.mark.parametrize("lp", ["exact", "highs"])
    def test_common_denominator_past_int64(self, tmp_path, lp):
        # weights 1e-20 and 3e-20 share the denominator 10^20 >= 2^63
        path = str(tmp_path / "tiny.graph")
        with open(path, "w") as fh:
            fh.write("n 3\ne 0 1 1e-20\ne 1 2 3e-20\n")
        res = run_cli(["ged", path, path, "--eps", "1", "--seed", "1", "--lp", lp])
        assert res.returncode == 0, res.stderr
        assert payload(res)["oracle_cost"] == "0/1"

    def test_sampled_mode_tries_every_image_of_one_source_set(self, files):
        # C6 vs 2C3 (no assignment of cost 0): P(6, 2) = 30 images of one
        # source set of size 2, counted before the first LP
        argv = ["ged", files["c6.graph"], files["2c3.graph"], "--eps", "1",
                "--seed", "3", "--mode", "sampled", "--m", "2"]
        runs = [payload(run_cli(argv)) for _ in range(2)]
        for data in runs:
            del data["timing_ms"]
        assert runs[0] == runs[1]
        data = runs[0]
        assert data["mode"] == "sampled" and data["m"] == 2
        assert data["alphas_tried"] == 30
        assert Fraction(data["gap"]) >= 0
        res = run_cli(argv, env={"ROBUSTISO_BUDGET": "29"})
        assert res.returncode == 3
        assert payload(res)["attempted"] == 30

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


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of cli.main run in this process."""
    try:
        code = robustiso.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestApproximationOutputsPinned:
    # the sha256 of stdout (timing_ms set to 0) and stderr, joined by a NUL,
    # of the approximation commands and their neighbours: `ged` and `qap` on
    # both backends and in both modes, with the oracle on and off, and their
    # budget, input and usage errors
    @pytest.mark.parametrize("argv, env, code, digest", [
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "7"], None, 0, "0c491ca30e3765e0db95d652dc13056d60b7c7fdb7b62a01864f82155b18932e"),
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "7", "--lp", "exact"],
         None, 0, "cd11ac063f26389058783d1377c51fc193921ebe77e56d31f0135b640c30211e"),
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "1", "--m", "2"],
         None, 0, "fabcdf163b0a5a345e10f5526e488e894ba260664a301cd06ddd799bf40da928"),
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "1", "--m", "2",
          "--lp", "exact"], None, 0, "b7f73038fc2b4ae259d5b1db36ddf23bd106299cc2a878eabeb465baaa6902bc"),
        (["ged", "c6.graph", "2c3.graph", "--eps", "1", "--seed", "3",
          "--mode", "sampled", "--m", "2"], None, 0, "f8206173015110414ccadc86ca61109c76963e20a815dec6a3a85a0f3eb39300"),
        (["ged", "c6.graph", "2c3.graph", "--eps", "1", "--seed", "3",
          "--mode", "sampled", "--m", "2", "--lp", "exact"], None, 0, "b368d3e6a4ead80fdfcac0a4a67b9e7ce672b56aadb973e1ac48ada78109b26c"),
        (["ged", "c6.graph", "2c3.graph", "--eps", "1", "--seed", "7",
          "--oracle-cap", "0"], None, 0, "c0352d24463acd782448577868679d63160a96c32f652585a86fbfdb27c3ba6e"),
        (["ged", "c6.graph", "2c3.graph", "--eps", "1/2", "--seed", "7",
          "--oracle-cap", "0"], None, 0, "ddb95da31eb54fe3c9b5700b3cdb8513f2123c9d2aed76d50cd1a731d6a35124"),
        (["qap", "small.qap", "--eps", "1", "--seed", "3"], None, 0, "541bfad98bcc44a5ba90e7cfbd3321aa5b23a30ea90c7de3a8d9e47bebff63ec"),
        (["qap", "small.qap", "--eps", "1", "--seed", "3", "--lp", "exact"],
         None, 0, "541bfad98bcc44a5ba90e7cfbd3321aa5b23a30ea90c7de3a8d9e47bebff63ec"),
        (["qap", "small.qap", "--eps", "1", "--seed", "3", "--m", "2"], None, 0, "9c980fdf30eacd81ef0fc5cf04264e154072057e450ac47f2a04e10079f3732c"),
        (["qap", "small.qap", "--eps", "1", "--seed", "3", "--mode", "sampled",
          "--m", "2"], None, 0, "92dbf3dd68910cc33307ab65b9732459bec7ef1a1d8fcd33f3e66da0417a63e1"),
        (["qap", "small.qap", "--eps", "1", "--seed", "3", "--mode", "sampled",
          "--m", "2", "--lp", "exact"], None, 0, "92dbf3dd68910cc33307ab65b9732459bec7ef1a1d8fcd33f3e66da0417a63e1"),
        (["qap", "small.qap", "--eps", "1/3", "--seed", "5", "--m", "2",
          "--oracle-cap", "0"], None, 0, "96ddf0079f6cbc95f7e5aa2f6803da6cd41e7241c0bd5b86be813dde4e70a0bd"),
        (["qap", "empty.qap", "--eps", "1", "--seed", "1"], None, 0, "8c656c0df27f51c742f0d41f76f54329803739af4fca468d735bb35b760db584"),
        (["oracle", "ged", "k3.graph", "p3.graph"], None, 0, "5317ece08be30c97285b82e398df6f4c6746ea2a5ac53e6841d89ba217f87bcf"),
        (["oracle", "qap", "small.qap"], None, 0, "191ec5cb8f710afaf3c9ae5fc7929e017a11b3439496823231e7e2fd80d9d0dd"),
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "1"],
         {"ROBUSTISO_BUDGET": "1"}, 3, "f427e4e476f16c529f0756ae97595206942696fa5fa24a48725e6a2d18157568"),
        (["qap", "big.qap", "--eps", "1", "--seed", "1"], None, 2, "3b967a599a3ea0c0d917e779b2b9b568884c51591926fcc170fb934d5e04c81b"),
        (["ged", "k3.graph", "p3.graph", "--seed", "1"], None, 2, "73e8738c0ece1cd922171eddeed453c7a72e9798b91f11ffac5d54187b45dc2e"),
        (["ged", "--help"], None, 0, "7077b2e136d4c53f9cacc12692785b30a1f10fcf6a3a2762339682f557ba31c0"),
        (["qap", "--help"], None, 0, "3116e3cc38f9450f8fd5f8ed4282773557f7932e625ad8923072b1ac2541a288"),
    ])
    def test_output_digest(self, files, tmp_path, capsys, monkeypatch, argv, env, code,
                           digest):
        (tmp_path / "empty.qap").write_text("qap 0\n")
        (tmp_path / "big.qap").write_text("qap 3\nq 0 1 2 0 1180591620717411303424\n")
        paths = {**files, "empty.qap": str(tmp_path / "empty.qap"),
                 "big.qap": str(tmp_path / "big.qap")}
        monkeypatch.delenv("ROBUSTISO_BUDGET", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        got, out, err = run_main([paths.get(a, a) for a in argv], capsys)
        out = re.sub(r'"timing_ms": [^,}]+', '"timing_ms": 0', out)
        assert got == code, err
        assert hashlib.sha256(f"{out}\0{err}".encode()).hexdigest() == digest, (out, err)

    def test_object_dtype_costs_pinned(self, tmp_path, capsys, monkeypatch):
        # coefficients of 2^70 keep the block in Python ints; every LP is
        # infeasible, so best_cost is the identity fallback's, and the oracle
        # brute-forces the same object block
        path = tmp_path / "obj.qap"
        path.write_text("qap 2\nq 0 0 0 0 1180591620717411303424\n"
                        "q 0 1 0 1 1180591620717411303424\n")
        monkeypatch.delenv("ROBUSTISO_BUDGET", raising=False)
        code, out, err = run_main(
            ["qap", str(path), "--eps", "1", "--seed", "1", "--lp", "exact"], capsys
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["best_cost"] == report["oracle_cost"] == "1180591620717411303424/1"
        assert report["assignment"] == [0, 1] and report["gap"] == "0/1"
        assert (report["alphas_tried"], report["lps_infeasible"]) == (4, 4)
        code, out, err = run_main(["oracle", "qap", str(path)], capsys)
        assert code == 0 and json.loads(out) == {
            "kind": "qap", "cost": "1180591620717411303424/1", "assignment": [0, 1],
        }


class TestVcOutputsPinned:
    # the sha256 of stdout and stderr, joined by a NUL, of `vc` on seeded
    # inputs, recorded before the VC search carried class sizes; the budget
    # run's message names the node count of the unbounded search (295)
    @pytest.mark.parametrize("argv, env, code, digest", [
        (["vc", "--graph", "gnp40.graph"], None, 0, "f8624ff798f91eb91af8c299703f5d5451d47484731130933e880ffc081b1126"),
        (["vc", "--graph", "gnp16.graph", "--mixed"], None, 0, "92507e642fff70afe50f42f54904144287bc90517138270b2b7bde986316c1c2"),
        (["vc", "--graph", "w12.graph", "--weighted"], None, 0, "385b909b9831ab304fce3514a749ef09e98907a5ec7d38fd96d3b7aa65636748"),
        (["vc", "--qap", "ged8.qap", "--threshold", "0"], None, 0, "bb6cd55a4c24c77e5665bd6daff5920607e71863bd949272267c95b4b3c4c709"),
        (["vc", "--qap", "wged6.qap", "--threshold", "1/2"], None, 0, "4b9a63d6ddbd229395aebe2be02c834958b04c3203f04e4e66105edecb949c81"),
        (["vc", "--graph", "gnp40.graph"], {"ROBUSTISO_BUDGET": "294"}, 3, "bd404e983d400de5994b9a74ab56105a80923bd928ac5ce37ef391a4462fe514"),
    ])
    def test_output_digest(self, tmp_path, capsys, monkeypatch, argv, env, code, digest):
        inputs = {
            "gnp40.graph": serialize_graph(gen_random_graph(40, seed=1)),
            "gnp16.graph": serialize_graph(gen_random_graph(16, seed=1)),
            "w12.graph": serialize_graph(random_weighted_graph(12, 5)),
            "ged8.qap": serialize_qap(
                ged_to_qap(gen_random_graph(8, seed=0), gen_random_graph(8, seed=100))
            ),
            "wged6.qap": serialize_qap(weighted_ged_to_qap(
                random_weighted_graph(6, 7), random_weighted_graph(6, 8)
            )),
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)  # the payload names its input
        monkeypatch.delenv("ROBUSTISO_BUDGET", raising=False)
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        got, out, err = run_main(argv, capsys)
        assert got == code, err
        assert hashlib.sha256(f"{out}\0{err}".encode()).hexdigest() == digest, (out, err)


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

    def test_weighted_graphs_are_usage_error(self, tmp_path):
        # WL reads no weight: this pair was answered "isomorphic" with exit 0,
        # although its edit distance 12 passes eps * n^2 = 4
        paths = write_weighted_paths(tmp_path)
        res = run_cli(["robust-gi", *paths, "--eps", "1/4"])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: Weisfeiler-Leman takes unweighted graphs only\n"
        res = run_cli(["oracle", "ged", *paths])
        assert payload(res)["cost"] == "12/1"


def write_weighted_paths(tmp_path):
    """Files of the path 0-1-2-3 with every weight 1 and with every weight 5."""
    paths = []
    for w in (1, 5):
        path = tmp_path / f"path-w{w}.graph"
        path.write_text("n 4\n" + "".join(f"e {v} {v + 1} {w}\n" for v in range(3)))
        paths.append(str(path))
    return paths


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
        assert payload(res)["attempted"] == 6**10

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

    # at k = 12 the budget (4^13 pairs) would refuse the graphs as too large
    @pytest.mark.parametrize("k", ["1", "2", "12"])
    def test_weighted_graphs_are_usage_error(self, tmp_path, k):
        ones, fives = write_weighted_paths(tmp_path)
        for graphs in ([fives], [ones, fives]):
            res = run_cli(["wl", *graphs, "--k", k])
            assert res.returncode == 2 and res.stdout == ""
            assert res.stderr == "error: Weisfeiler-Leman takes unweighted graphs only\n"


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

    def test_target_vc_search_takes_the_node_budget(self, tmp_path):
        res = run_cli(
            ["gen", "random", "--n", "30", "--target-vc", "4", "--seed", "2",
             "--out", str(tmp_path / "r.graph")],
            env={"ROBUSTISO_BUDGET": "0"},
        )
        assert res.returncode == 3, res.stderr
        assert payload(res)["attempted"] == 1
        assert not any(tmp_path.iterdir())

    def test_order_past_the_vertex_cap_exits_three_before_sampling(self, tmp_path):
        # C(n, 2) draws at n = 2 * 10^6 would run for hours
        res = subprocess.run(
            [sys.executable, "-m", "robustiso.cli", "gen", "random", "--n", "2000000",
             "--seed", "1", "--out", str(tmp_path / "r.graph")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert res.returncode == 3, res.stderr
        data = payload(res)
        assert "vertex cap" in data["detail"] and data["attempted"] == 2000000
        assert not any(tmp_path.iterdir())

    def test_order_past_the_draw_cap_exits_three_before_sampling(self, tmp_path):
        # under the vertex cap, but C(n, 2) draws once ran until killed
        res = subprocess.run(
            [sys.executable, "-m", "robustiso.cli", "gen", "random", "--n", "100000",
             "--seed", "1", "--out", str(tmp_path / "r.graph")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert res.returncode == 3, res.stderr
        data = payload(res)
        assert "edge draws" in data["detail"] and data["attempted"] == 4_999_950_000
        assert not any(tmp_path.iterdir())


class TestOracleCommand:
    def test_ged(self, files):
        res = run_cli(["oracle", "ged", files["k3.graph"], files["p3.graph"]])
        assert payload(res)["cost"] == "1/1"

    def test_iso(self, files):
        res = run_cli(["oracle", "iso", files["c6.graph"], files["2c3.graph"]])
        assert payload(res)["isomorphic"] is False

    @pytest.mark.parametrize("kind", ["ged", "iso"])
    def test_second_graph_required(self, files, kind):
        res = run_cli(["oracle", kind, files["k3.graph"]])
        assert res.returncode == 2 and res.stdout == ""
        assert "required: b" in res.stderr

    def test_qap(self, tmp_path):
        p = tmp_path / "q.qap"
        p.write_text("qap 2\nq 0 0 1 1 5\n")
        res = run_cli(["oracle", "qap", str(p)])
        assert payload(res)["cost"] == "0/1"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "args",
        [
            ["vc", "--graph", "k3.graph", "--threshold", "5"],
            ["vc", "--graph", "k3.graph", "--weak-d", "1"],
            ["vc", "--qap", "small.qap", "--weighted"],
            ["vc", "--qap", "small.qap", "--mixed"],
            ["vc", "--graph", "k3.graph", "--weighted", "--mixed"],
            ["vc", "--qap", "small.qap", "--threshold", "1", "--weak-d", "1"],
            ["oracle", "qap", "small.qap", "small.qap"],
            ["oracle", "iso", "k3.graph", "p3.graph", "--cap", "1"],
            ["gen", "vcgap", "--n", "8", "--base", "prism", "--out", "{tmp}/f"],
            ["gen", "cfi", "--seed", "3", "--out", "{tmp}/d"],
            ["gen", "random", "--n", "6", "--seed", "1", "--ell", "3", "--out", "{tmp}/f"],
        ],
    )
    def test_flag_the_command_would_ignore_is_usage_error(self, files, tmp_path, args):
        args = [files.get(a, a).replace("{tmp}", str(tmp_path)) for a in args]
        res = run_cli(args)
        assert res.returncode == 2 and res.stdout == ""
        assert "error: " in res.stderr
        assert not any(tmp_path.iterdir())

    def test_failed_self_check_exit_two(self, tmp_path):
        # no 5-vertex graph has neighbourhood VC dimension 9
        out = tmp_path / "f"
        res = run_cli(["gen", "random", "--n", "5", "--seed", "1",
                       "--target-vc", "9", "--out", str(out)])
        assert res.returncode == 2 and res.stdout == ""
        assert "error: " in res.stderr and "Traceback" not in res.stderr
        assert not any(tmp_path.iterdir())

    def test_impossible_target_vc_is_usage_error(self, tmp_path):
        # 30 neighbourhoods shatter at most 4 vertices: refused before sampling
        out = tmp_path / "f"
        res = run_cli(["gen", "random", "--n", "30", "--seed", "1",
                       "--target-vc", "9", "--out", str(out)])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            "error: no graph on 30 vertices has neighbourhood VC 9: "
            "its 30 neighbourhoods shatter at most 4 vertices\n"
        )
        assert not any(tmp_path.iterdir())
        # a possible target that the search does not find fails after it
        res = run_cli(["gen", "random", "--n", "5", "--seed", "1", "--p", "0",
                       "--target-vc", "1", "--out", str(out)])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: no graph of neighbourhood VC 1 found in 200 samples\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["ged", "qap"])
    @pytest.mark.parametrize("eps", ["0", "-1"])
    def test_nonpositive_eps_is_usage_error(self, files, command, eps):
        inputs = (
            [files["k3.graph"], files["p3.graph"]] if command == "ged"
            else [files["small.qap"]]
        )
        res = run_cli([command, *inputs, f"--eps={eps}", "--seed", "1"])
        assert res.returncode == 2 and res.stdout == ""
        assert "error: eps must be positive" in res.stderr

    def test_parse_error_exit_two(self, files):
        res = run_cli(["vc", "--graph", files["bad.graph"]])
        assert res.returncode == 2
        assert "self-loop" in res.stderr

    def test_lp_that_highs_refuses_is_input_error(self, tmp_path):
        # a 2^70 coefficient is past HiGHS's 1e15 limit on matrix values: one
        # error line naming the limit and --lp exact, which solves it
        path = str(tmp_path / "big.qap")
        with open(path, "w") as fh:
            fh.write("qap 3\nq 0 1 2 0 1180591620717411303424\n")
        res = run_cli(["qap", path, "--eps", "1", "--seed", "1"])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            "error: HiGHS refused the LP: its matrix values must stay below 1e+15 "
            "(large_matrix_value); solve it with --lp exact\n"
        )
        res = run_cli(["qap", path, "--eps", "1", "--seed", "1", "--lp", "exact"])
        assert res.returncode == 0 and payload(res)["best_cost"] == "0/1"

    def test_huge_exponent_is_refused_at_once(self, files, tmp_path):
        # building 10^10000000 once took seconds, and ged then crashed
        path = str(tmp_path / "exp.graph")
        with open(path, "w") as fh:
            fh.write("n 2\ne 0 1 1e-10000000\n")
        k3 = files["k3.graph"]
        for args, shown in (
            (["vc", "--graph", path], "error: line 2: invalid value '1e-10000000'"),
            (["ged", path, path, "--eps", "1", "--seed", "1"], "error: line 2:"),
            (["ged", k3, k3, "--eps", "1e99999999", "--seed", "1"], "error: argument --eps"),
        ):
            start = time.perf_counter()
            res = run_cli(args)
            assert time.perf_counter() - start < 5, args
            assert res.returncode == 2 and res.stdout == "", args
            assert shown in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("argv, budget, shown", [
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "1"], "-1",
         "error: ROBUSTISO_BUDGET must be an integer >= 0, got '-1'"),
        (["vc", "--graph", "k3.graph"], "-5",
         "error: ROBUSTISO_BUDGET must be an integer >= 0, got '-5'"),
        (["wl", "k3.graph"], "many",
         "error: ROBUSTISO_BUDGET must be an integer >= 0, got 'many'"),
        (["oracle", "ged", "k3.graph", "p3.graph", "--cap", "-1"], None,
         "robustiso oracle ged: error: argument --cap: must be an integer >= 0, got '-1'"),
        (["oracle", "qap", "small.qap", "--cap=-3"], None,
         "robustiso oracle qap: error: argument --cap: must be an integer >= 0, got '-3'"),
        (["oracle", "qap", "small.qap", "--cap", "ten"], None,
         "robustiso oracle qap: error: argument --cap: must be an integer >= 0, got 'ten'"),
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "1", "--oracle-cap", "-1"],
         None, "robustiso ged: error: argument --oracle-cap: must be an integer >= 0, got '-1'"),
        (["qap", "small.qap", "--eps", "1", "--seed", "1", "--oracle-cap=-2"], None,
         "robustiso qap: error: argument --oracle-cap: must be an integer >= 0, got '-2'"),
    ], ids=["ged-budget", "vc-budget", "wl-budget-text", "oracle-ged-cap", "oracle-qap-cap",
            "oracle-qap-cap-text", "ged-oracle-cap", "qap-oracle-cap"])
    def test_negative_budget_or_cap_is_usage_error(self, files, capsys, monkeypatch,
                                                   argv, budget, shown):
        monkeypatch.delenv("ROBUSTISO_BUDGET", raising=False)
        if budget is not None:
            monkeypatch.setenv("ROBUSTISO_BUDGET", budget)
        code, out, err = run_main([files.get(a, a) for a in argv], capsys)
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [shown]

    @pytest.mark.parametrize("argv, budget, attempted", [
        (["ged", "k3.graph", "p3.graph", "--eps", "1", "--seed", "1"], "0", 9),
        (["oracle", "ged", "k3.graph", "p3.graph", "--cap", "0"], None, 3),
    ], ids=["ged-budget", "oracle-ged-cap"])
    def test_zero_budget_or_cap_is_a_limit(self, files, capsys, monkeypatch,
                                           argv, budget, attempted):
        monkeypatch.delenv("ROBUSTISO_BUDGET", raising=False)
        if budget is not None:
            monkeypatch.setenv("ROBUSTISO_BUDGET", budget)
        code, out, err = run_main([files.get(a, a) for a in argv], capsys)
        assert code == 3 and err == ""
        assert json.loads(out)["attempted"] == attempted

    def test_missing_file_exit_two(self):
        res = run_cli(["vc", "--graph", "/nonexistent.graph"])
        assert res.returncode == 2


class TestBudgetOverrideAppliesToSolver:
    def test_alpha_budget_from_env(self, files):
        res = run_cli(
            ["ged", files["k3.graph"], files["p3.graph"], "--eps", "1",
             "--seed", "1", "--m", "2"],
            env={"ROBUSTISO_BUDGET": "2"},
        )
        assert res.returncode == 3
        assert payload(res)["error"] == "budget-exceeded"

    def test_alpha_count_checked_before_the_sweep(self, files):
        # K3 vs P3 at m = 2 has 9 + 18 = 27 alphas, none of cost 0
        argv = ["ged", files["k3.graph"], files["p3.graph"], "--eps", "1",
                "--seed", "1", "--m", "2"]
        res = run_cli(argv, env={"ROBUSTISO_BUDGET": "26"})
        assert res.returncode == 3
        assert payload(res)["attempted"] == 27
        res = run_cli(argv, env={"ROBUSTISO_BUDGET": "27"})
        assert res.returncode == 0
        assert payload(res)["alphas_tried"] == 27


class TestOrderCap:
    # an order-300 instance has 300^4 = 8.1e9 dense cells (60 GiB as int64):
    # each command must refuse it with exit 3 before allocating anything
    @pytest.mark.parametrize(
        "argv",
        [
            ["qap", "{qap}", "--eps", "1", "--seed", "1"],
            ["vc", "--qap", "{qap}"],
            ["ged", "{graph}", "{graph}", "--eps", "1", "--seed", "1"],
        ],
        ids=["qap", "vc-qap", "ged"],
    )
    def test_order_300_exits_three(self, tmp_path, argv):
        (tmp_path / "empty.qap").write_text("qap 300\n")
        (tmp_path / "edgeless.graph").write_text("n 300\n")
        paths = {"qap": str(tmp_path / "empty.qap"), "graph": str(tmp_path / "edgeless.graph")}
        res = run_cli([arg.format(**paths) for arg in argv])
        assert res.returncode == 3, res.stderr
        data = payload(res)
        assert data["error"] == "budget-exceeded"
        assert data["attempted"] == 300**4
        assert "Traceback" not in res.stderr


    @pytest.mark.parametrize(
        "argv",
        [
            ["vc", "--graph", "{graph}"],
            ["ged", "{graph}", "{graph}", "--eps", "1", "--seed", "1"],
            ["wl", "{graph}", "--k", "1"],
        ],
        ids=["vc", "ged", "wl"],
    )
    def test_huge_graph_order_exits_three_at_once(self, tmp_path, argv):
        # a 20-byte file naming 10^10 vertices: refused before any per-vertex
        # map is built, so the command ends at once in a 1 GiB address space
        path = tmp_path / "huge.graph"
        path.write_text("n 10000000000\nc 0 1\n")
        res = run_cli_in_one_gib([a.format(graph=path) for a in argv])
        assert res.returncode == 3, res.stderr
        data = payload(res)
        assert data["error"] == "budget-exceeded" and "vertex cap" in data["detail"]
        assert 10**10 in data.values()

    def test_huge_vcgap_order_exits_two_at_once(self, tmp_path):
        # the order check once came after the entries of all 2^29 subsets
        out = tmp_path / "gap.qap"
        res = run_cli_in_one_gib(["gen", "vcgap", "--n", "1000000000", "--out", str(out)])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            "error: order 1000000000 has n^4 >= 2^63 coefficient positions, past int64\n"
        )
        assert not out.exists()

    def test_huge_blowup_exits_three_at_once(self, tmp_path):
        # 40 CFI vertices times 30,000 layers: refused before the ell^2
        # weights of any edge are built
        save_bundle(gen_cfi_pair("k4"), str(tmp_path / "cfi"))
        res = run_cli_in_one_gib(
            ["gen", "blowup", "--in", str(tmp_path / "cfi"), "--ell", "30000",
             "--out", str(tmp_path / "big")]
        )
        assert res.returncode == 3, res.stderr
        data = payload(res)
        assert data["error"] == "budget-exceeded" and "vertex cap" in data["detail"]
        assert data["attempted"] == 1_200_000
        assert not (tmp_path / "big").exists()

    def test_huge_blowup_edges_exit_three_at_once(self, tmp_path):
        # 26,000 layers keep the 40 CFI vertices under the vertex cap, but
        # each of the 60 base edges would become 26,000^2 edges
        save_bundle(gen_cfi_pair("k4"), str(tmp_path / "cfi"))
        res = run_cli_in_one_gib(
            ["gen", "blowup", "--in", str(tmp_path / "cfi"), "--ell", "26000",
             "--out", str(tmp_path / "big")]
        )
        assert res.returncode == 3, res.stderr
        data = payload(res)
        assert data["error"] == "budget-exceeded" and "edge cap" in data["detail"]
        assert data["attempted"] == 60 * 26_000**2
        assert not (tmp_path / "big").exists()


def run_cli_in_one_gib(args):
    """run_cli with the address space of the command limited to 1 GiB."""
    limit = (2**30, 2**30)
    return subprocess.run(
        [sys.executable, "-m", "robustiso.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )


class TestStartUp:
    def test_commands_that_solve_no_lp_leave_scipy_optimize_unloaded(self, files, tmp_path):
        # a fresh interpreter, since this test process has loaded scipy already;
        # the exact simplex solves inline, so `ged --lp exact` loads neither
        # scipy.optimize nor the thread pool
        commands = [
            ["wl", files["c6.graph"], files["2c3.graph"], "--k", "2"],
            ["vc", "--graph", files["c6.graph"]],
            ["gen", "random", "--n", "6", "--seed", "1", "--out", str(tmp_path / "r.graph")],
            ["ged", files["k3.graph"], files["p3.graph"], "--eps", "1", "--seed", "7",
             "--lp", "exact"],
        ]
        script = (
            "import json, sys\n"
            "def loaded():\n"
            "    return [m in sys.modules for m in ('scipy.optimize', 'concurrent.futures')]\n"
            "import robustiso\n"
            "seen = [('import robustiso', 0, *loaded())]\n"
            "from robustiso.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = main(argv)\n"
            "    seen.append((argv[0], code, *loaded()))\n"
            "print(json.dumps(seen), file=sys.stderr)\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        seen = json.loads(res.stderr.splitlines()[-1])
        assert seen == [
            ["import robustiso", 0, False, False],
            ["wl", 0, False, False],
            ["vc", 0, False, False],
            ["gen", 0, False, False],
            ["ged", 0, False, False],
        ]


class TestPackageRoot:
    def test_import_binds_the_value_types_and_loads_no_algorithm(self):
        # a fresh interpreter, since this test process has loaded every module;
        # every other name is imported from its own module
        script = (
            "import json, sys, types\n"
            "import robustiso\n"
            "names = sorted(n for n, v in vars(robustiso).items()\n"
            "               if not n.startswith('__') and not isinstance(v, types.ModuleType))\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('robustiso.'))\n"
            "print(json.dumps([names, robustiso.__version__, loaded]))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        names, version, loaded = json.loads(res.stdout)
        assert names == ["Assignment", "Graph", "QapInstance"]
        assert version == "0.1.0"
        assert loaded == [
            "robustiso.errors", "robustiso.graphs", "robustiso.qap", "robustiso.rationals",
        ]
