import json
import math
import os

import numpy as np
import pytest

from dirtda import (
    PersistenceDiagram,
    load_diagram,
    load_series,
    realize,
    save_diagram,
    save_series,
    system_one,
)
from dirtda.cli import main
from dirtda.jsonio import read_json
from dirtda.pdc import network_from_dict
from dirtda.var import var_model_from_dict


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def run(*argv):
    return main([str(a) for a in argv])


class TestStageChain:
    """simulate -> fit -> pdc -> decompose -> persist -> landscape -> compare."""

    def test_full_chain(self, workdir):
        csv = workdir / "sim.csv"
        assert run("simulate", "--system", "1", "--t", "4000", "--seed", "7",
                   "--out", csv) == 0
        series = load_series(str(csv), 1.0)
        assert series.samples.shape == (4000, 5)

        model = workdir / "model.json"
        assert run("fit", "--input", csv, "--fs", "1.0", "--order", "3",
                   "--out", model) == 0
        m = var_model_from_dict(read_json(model))
        assert m.order_k == 3 and m.n_channels == 5

        net = workdir / "net.json"
        assert run("pdc", "--model", model, "--band", "peak:0.18:0.28",
                   "--fs", "1.0", "--out", net) == 0
        w = network_from_dict(read_json(net))
        assert w.band.name == "peak"
        assert np.all(w.weights >= 0.0) and np.all(w.weights <= 1.0)

        dec = workdir / "dec.json"
        assert run("decompose", "--network", net, "--out", dec) == 0

        dia = workdir / "dia.json"
        assert run("persist", "--decomp", dec, "--max-dim", "2", "--out", dia,
                   "--plot", workdir / "dia.svg") == 0
        diagram = load_diagram(str(dia))
        assert any(d[0] == 0 for d in diagram.pairs)
        assert (workdir / "dia.svg").read_bytes().startswith(b"<svg")

        land = workdir / "land.json"
        assert run("landscape", "--diagram", dia, "--dim", "0", "--k-max", "3",
                   "--out", land, "--plot", workdir / "land.svg") == 0
        assert read_json(land)["dim"] == 0

    def test_compare_output(self, workdir, capsys):
        dia = workdir / "dia.json"
        out = workdir / "cmp.json"
        assert run("compare", "--a", dia, "--b", dia, "--dim", "0",
                   "--out", out) == 0
        doc = read_json(out)
        assert doc["bottleneck"] == 0.0
        assert doc["wasserstein"] == 0.0
        assert doc["landscape_l2"] == 0.0
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_select_order_flag(self, workdir):
        model = workdir / "model_sel.json"
        assert run("fit", "--input", workdir / "sim.csv", "--fs", "1.0",
                   "--select-k-max", "4", "--criterion", "bic",
                   "--out", model) == 0
        assert read_json(model)["k"] >= 1

    def test_fit_window_and_no_standardize(self, workdir):
        a = workdir / "m_win.json"
        b = workdir / "m_raw.json"
        assert run("fit", "--input", workdir / "sim.csv", "--fs", "1.0",
                   "--window", "0:2000", "--order", "2", "--out", a) == 0
        assert run("fit", "--input", workdir / "sim.csv", "--fs", "1.0",
                   "--window", "0:2000", "--order", "2", "--no-standardize",
                   "--out", b) == 0
        ca = np.asarray(read_json(a)["coeffs"])
        cb = np.asarray(read_json(b)["coeffs"])
        assert not np.array_equal(ca, cb)

    def test_landscape_of_zero_deaths_without_t_max(self, workdir):
        dia = workdir / "zero_dia.json"
        save_diagram(PersistenceDiagram(((0, 0.0, 0.0), (0, 0.0, 0.0),
                                         (0, 0.0, math.inf))), str(dia))
        land = workdir / "zero_land.json"
        assert run("landscape", "--diagram", dia, "--dim", "0", "--k-max", "2",
                   "--n-grid", "16", "--out", land, "--plot", workdir / "zero_land.svg") == 0
        doc = read_json(land)
        assert doc["grid"][-1] == 1.0
        # the essential class is a tent truncated at t_max; the zero pairs add none
        assert max(doc["levels"][0]) > 0.0
        assert not any(doc["levels"][1])


@pytest.fixture(scope="module")
def config_path(workdir):
    csv = workdir / "run_input.csv"
    save_series(realize(system_one(), 2000, seed=11), str(csv))
    path = workdir / "config.json"
    path.write_text(json.dumps({
        "input": str(csv),
        "fs_hz": 1.0,
        "out_dir": str(workdir / "unused"),
        "windows": {"w1": [0.0, 1000.0], "w2": [1000.0, 2000.0]},
        "bands": {"peak": [0.18, 0.28]},
        "order": 3,
    }))
    return path


class TestRunCommand:
    def test_success_exit_zero(self, workdir, config_path):
        out = workdir / "run_ok"
        assert run("run", "--config", config_path, "--out-dir", out) == 0
        report = read_json(out / "report.json")
        assert report["failures"] == []
        assert sorted(report["cells"]) == ["w1", "w2"]

    def test_partial_failure_exit_two(self, workdir, config_path, capsys):
        out = workdir / "run_partial"
        code = run("run", "--config", config_path, "--out-dir", out,
                   "--band", "peak:0.18:0.28", "--band", "bad:0.6:0.9")
        assert code == 2
        assert "cell failed" in capsys.readouterr().err
        report = read_json(out / "report.json")
        assert len(report["failures"]) == 2

    def test_all_failed_exit_one(self, workdir, config_path):
        assert run("run", "--config", config_path,
                   "--out-dir", workdir / "run_allfail",
                   "--band", "bad:0.6:0.9") == 1

    def test_missing_input_exit_one(self, workdir, config_path, capsys):
        assert run("run", "--config", config_path, "--input", "no_such.csv",
                   "--out-dir", workdir / "run_missing") == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_key(self, workdir, capsys):
        path = workdir / "config_nofs.json"
        path.write_text(json.dumps({"input": "x.csv", "out_dir": "o"}))
        assert run("run", "--config", path) == 1
        assert "fs_hz" in capsys.readouterr().err

    def test_window_override(self, workdir, config_path):
        out = workdir / "run_override"
        assert run("run", "--config", config_path, "--out-dir", out,
                   "--window", "first:0:500") == 0
        report = read_json(out / "report.json")
        assert list(report["cells"]) == ["first"]

    def test_unknown_config_keys_exit_one(self, workdir, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc.update({"max-dim": 1, "windwos": {"w": [0.0, 500.0]}, "threads": 2})
        path = workdir / "config_typo.json"
        path.write_text(json.dumps(doc))
        out = workdir / "run_typo"
        assert run("run", "--config", path, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "max-dim" in err and "windwos" in err and "threads" in err
        assert not out.exists()


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("windows", [[0, 1]]),
            ("windows", {"w": [1]}),
            ("windows", {"w": [0, 1, 2]}),
            ("bands", {"a": 5}),
            ("fs_hz", None),
            ("order", "x"),
            ("standardize", "false"),
            ("order", 5.7),
            ("n_grid", 2.9),
            ("max_dim", 1.5),
            ("select_k_max", 2.5),
            ("fs_hz", True),
            ("input", None),
            ("criterion", "xyz"),
        ],
        ids=["windows-list", "span-one-number", "span-three-numbers", "band-number",
             "fs_hz-null", "order-text", "standardize-text", "order-float",
             "n_grid-float", "max_dim-float", "select_k_max-float", "fs_hz-bool",
             "input-null", "criterion-unknown"],
    )
    def test_bad_value_names_its_key(self, workdir, config_path, capsys, key, value):
        doc = dict(json.loads(config_path.read_text()), **{key: value})
        path = workdir / "config_bad.json"
        path.write_text(json.dumps(doc))
        assert run("run", "--config", path, "--out-dir", workdir / "run_bad") == 1
        assert f"config key {key!r}" in capsys.readouterr().err


class TestCompareMatchesRun:
    def test_compare_reproduces_report_distances(self, workdir, config_path, capsys):
        # with two windows the pair's shared t_max is the band's t_max
        out = workdir / "run_cmp"
        assert run("run", "--config", config_path, "--out-dir", out) == 0
        capsys.readouterr()
        report = read_json(out / "report.json")
        for dim in range(3):
            assert run("compare", "--a", out / "diagram_w1_peak.json",
                       "--b", out / "diagram_w2_peak.json", "--dim", dim) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc.pop("dim") == dim
            assert doc == report["distances"]["peak"]["w1|w2"][str(dim)]


class TestArgErrors:
    def test_bad_band_syntax(self, workdir, capsys):
        assert run("pdc", "--model", workdir / "model.json", "--band",
                   "peak:0.18", "--fs", "1.0", "--out", workdir / "x.json") == 1
        assert "NAME:LOW:HIGH" in capsys.readouterr().err

    def test_unknown_named_band(self, workdir, capsys):
        assert run("pdc", "--model", workdir / "model.json", "--band",
                   "nosuch", "--fs", "1.0", "--out", workdir / "x.json") == 1

    def test_bad_window_syntax(self, workdir, capsys):
        assert run("fit", "--input", workdir / "sim.csv", "--fs", "1.0",
                   "--window", "backwards", "--out", workdir / "x.json") == 1
        assert "START:END" in capsys.readouterr().err

    def test_bad_run_window_syntax(self, workdir, config_path, capsys):
        assert run("run", "--config", config_path, "--out-dir",
                   workdir / "run_badwin", "--window", "w1") == 1
        assert "expected NAME:START:END" in capsys.readouterr().err

    def test_missing_file_reported(self, workdir, capsys):
        assert run("persist", "--decomp", workdir / "absent.json",
                   "--out", workdir / "x.json") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_raises_system_exit(self):
        with pytest.raises(SystemExit):
            run("frobnicate")


class TestDeterminism:
    def test_simulate_seed_reproducible(self, workdir):
        a = workdir / "rep_a.csv"
        b = workdir / "rep_b.csv"
        run("simulate", "--system", "2", "--t", "500", "--seed", "9", "--out", a)
        run("simulate", "--system", "2", "--t", "500", "--seed", "9", "--out", b)
        assert a.read_bytes() == b.read_bytes()
