import json
import math
import os

import numpy as np
import pytest

from dirtda import (
    PersistenceDiagram,
    fit_var,
    load_diagram,
    load_series,
    realize,
    save_diagram,
    save_series,
    system_one,
)
from dirtda.cli import main
from dirtda.jsonio import read_json, write_json
from dirtda.pdc import network_from_dict
from dirtda.var import var_model_from_dict, var_model_to_dict


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

    def test_infinite_sampling_rate_exit_one_before_any_write(self, workdir, config_path, capsys):
        out = workdir / "run_fs_inf"
        assert run("run", "--config", config_path, "--out-dir", out, "--fs", "inf") == 1
        assert "config key 'fs_hz': must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_inverted_window_exit_one_before_any_write(self, workdir, config_path, capsys):
        out = workdir / "run_inverted"
        assert run("run", "--config", config_path, "--out-dir", out,
                   "--window", "w:900:100") == 1
        assert "config key 'windows': must be " in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_band_edge_exit_one_before_any_write(self, workdir, config_path, capsys):
        # this band used to pass, then every cell failed beyond Nyquist
        # after model_full.json and report.json were written
        out = workdir / "run_infinite_band"
        assert run("run", "--config", config_path, "--out-dir", out,
                   "--band", "b:0.1:inf") == 1
        assert "band 'b' needs 0 <= low < high < inf" in capsys.readouterr().err
        assert not out.exists()

    def test_window_name_holding_bar_exit_one_before_any_write(self, workdir, config_path, capsys):
        out = workdir / "run_bar"
        assert run("run", "--config", config_path, "--out-dir", out,
                   "--window", "a|b:0:1500") == 1
        assert "config key 'windows': name 'a|b' holds '|'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--window", "a:0:900", "--window", "a:900:1800"], "--window: name 'a'"),
            (["--band", "alpha", "--band", "alpha:8:12"], "--band: name 'alpha'"),
        ],
        ids=["window", "band"],
    )
    def test_repeated_name_exit_one_before_any_write(
        self, workdir, config_path, capsys, flags, message
    ):
        # the second value used to replace the first without a word
        out = workdir / f"run_repeated_{flags[0][2:]}"
        assert run("run", "--config", config_path, "--out-dir", out, *flags) == 1
        assert f"error: {message} given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_config_repeating_a_window_exit_one_before_any_write(
        self, config_path, tmp_path, capsys
    ):
        out, path = tmp_path / "out", tmp_path / "config.json"
        doc = json.loads(config_path.read_text())
        del doc["windows"]
        doc["out_dir"] = str(out)
        # json.dumps cannot repeat a key, so the windows are appended as text
        path.write_text(json.dumps(doc)[:-1] + ', "windows": {"a": [0, 900], "a": [900, 1800]}}')
        assert run("run", "--config", path) == 1
        assert "error: key 'a' appears more than once" in capsys.readouterr().err
        assert not out.exists()

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
            ("bands", {"a": [True, 2]}),
            ("bands", {"a": ["x", 2]}),
            ("bands", {"a": [0.1, math.inf]}),
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
            ("order", 0),
            ("n_grid", 0),
            ("landscape_k_max", 0),
            ("select_k_max", 0),
            ("landscape_n_grid", 1),
            ("max_dim", 0),
            ("max_dim", 3),
            ("wasserstein_q", 0.5),
            ("wasserstein_q", float("inf")),
            ("wasserstein_q", float("nan")),
        ],
        ids=["windows-list", "span-one-number", "span-three-numbers", "band-number",
             "band-edge-bool", "band-edge-text", "band-edge-inf",
             "fs_hz-null", "order-text", "standardize-text", "order-float",
             "n_grid-float", "max_dim-float", "select_k_max-float", "fs_hz-bool",
             "input-null", "criterion-unknown", "order-0", "n_grid-0",
             "landscape_k_max-0", "select_k_max-0", "landscape_n_grid-1", "max_dim-0",
             "max_dim-3", "wasserstein_q-half", "wasserstein_q-inf", "wasserstein_q-nan"],
    )
    def test_bad_value_names_its_key(self, workdir, config_path, capsys, key, value):
        doc = dict(json.loads(config_path.read_text()), **{key: value})
        path = workdir / "config_bad.json"
        path.write_text(json.dumps(doc))
        assert run("run", "--config", path, "--out-dir", workdir / "run_bad") == 1
        assert f"config key {key!r}" in capsys.readouterr().err
        # rejected before any write: no half-written out_dir
        assert not (workdir / "run_bad").exists()


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

    @pytest.mark.parametrize("fs", ["inf", "nan"])
    def test_pdc_refuses_non_finite_sampling_rate(self, tmp_path, capsys, fs):
        # an infinite rate used to write a network evaluated at omega = 0
        model, out = tmp_path / "model.json", tmp_path / "net.json"
        write_json(var_model_to_dict(fit_var(realize(system_one(), 500, seed=1), 2)), str(model))
        assert run("pdc", "--model", model, "--band", "peak:0.18:0.28",
                   "--fs", fs, "--out", out) == 1
        assert f"fs_hz must be finite and > 0, got {fs}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("null", ["run", "--config", "{doc}"], "got null"),
            ("[]", ["run", "--config", "{doc}", "--input", "x.csv"], "got list"),
            ("[]", ["landscape", "--diagram", "{doc}", "--dim", "1", "--out", "{out}"],
             "got list"),
            ('{"pairs": [1, 2]}',
             ["landscape", "--diagram", "{doc}", "--dim", "1", "--out", "{out}"],
             "diagram pair 0: must be an object, got 1"),
            ('{"pairs": 5}', ["compare", "--a", "{doc}", "--b", "{doc}", "--dim", "1",
                              "--out", "{out}"], "diagram pairs must be a list, got int"),
            ("[]", ["pdc", "--model", "{doc}", "--band", "alpha", "--fs", "100",
                    "--out", "{out}"], "got list"),
            ("null", ["decompose", "--network", "{doc}", "--out", "{out}"], "got null"),
            ('{"pairs": [{"dim": 1, "birth": null, "death": 1}]}',
             ["landscape", "--diagram", "{doc}", "--dim", "1", "--out", "{out}"],
             "diagram pair 0: birth must be a number, got None"),
            ('{"pairs": [{"dim": 1, "birth": 0, "death": [1]}]}',
             ["landscape", "--diagram", "{doc}", "--dim", "1", "--out", "{out}"],
             "diagram pair 0: death must be a number, got [1]"),
            ('{"band": 5, "w": 1, "labels": 1}',
             ["decompose", "--network", "{doc}", "--out", "{out}"],
             "network band must be an object, got int"),
            ('{"band": {"name": "b", "low_hz": 1, "high_hz": 2}, "w": [[0]], "labels": 1}',
             ["decompose", "--network", "{doc}", "--out", "{out}"],
             "network labels must be a list, got int"),
            ('{"source": 5}', ["persist", "--decomp", "{doc}", "--out", "{out}"],
             "network must be an object, got int"),
            ('{"k": "1", "d": 1, "coeffs": [[[0.5]]], "sigma": [[1]]}',
             ["pdc", "--model", "{doc}", "--band", "b:1:2", "--fs", "100", "--out", "{out}"],
             "declared (k='1', d=1) does not match"),
            ('{"band": {"name": "b", "low_hz": null, "high_hz": 2}, "w": [[0]], "labels": ["a"]}',
             ["decompose", "--network", "{doc}", "--out", "{out}"],
             "network band low_hz must be a number, got None"),
            ('{"band": {"name": "b", "low_hz": 1, "high_hz": 2}, "w": {}, "labels": ["a"]}',
             ["decompose", "--network", "{doc}", "--out", "{out}"],
             "network w must be an array of numbers"),
            ('{"source": {"band": {"name": "b", "low_hz": 1, "high_hz": 2}, "w": [[0]],'
             ' "labels": ["a"]}, "w_s": {}, "w_a": [[0]]}',
             ["persist", "--decomp", "{doc}", "--out", "{out}"],
             "decomposition w_s must be an array of numbers"),
            ('{"k": 1, "d": 1, "coeffs": {}, "sigma": [[1]]}',
             ["pdc", "--model", "{doc}", "--band", "b:1:2", "--fs", "100", "--out", "{out}"],
             "model coeffs must be an array of numbers"),
        ],
        ids=["run-null", "run-list", "landscape-list", "landscape-pair-numbers",
             "compare-pairs-number", "pdc-list", "decompose-null", "landscape-birth-null",
             "landscape-death-list", "decompose-band-number", "decompose-labels-number",
             "persist-source-number", "pdc-k-string", "decompose-low-hz-null",
             "decompose-w-object", "persist-w-s-object", "pdc-coeffs-object"],
    )
    def test_json_of_wrong_shape_exit_one(self, tmp_path, capsys, text, argv, message):
        # each of these used to end on a TypeError traceback, or on a message
        # that read as a contradiction (k=1 against shape (1, 1, 1))
        doc, out = tmp_path / "doc.json", tmp_path / "out.json"
        doc.write_text(text)
        assert run(*(arg.format(doc=doc, out=out) for arg in argv)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_compare_refuses_non_finite_q(self, tmp_path, capsys, q):
        dia = tmp_path / "dia.json"
        save_diagram(PersistenceDiagram(((1, 0.0, 2.0),)), str(dia))
        assert run("compare", "--a", dia, "--b", dia, "--dim", "1", "--q", q) == 1
        captured = capsys.readouterr()
        assert f"q must be finite and >= 1, got {q}" in captured.err
        assert captured.out == ""

    def test_compare_q_underflowing_every_matched_cost_prints_distance(self, tmp_path, capsys):
        # 8.0 ** 1000 used to overflow, and compare ended on a traceback;
        # then every matched cost underflowed, and compare refused the q
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_diagram(PersistenceDiagram(((1, 0.0, 10.0), (1, 1.0, 2.0))), str(a))
        save_diagram(PersistenceDiagram(((1, 0.0, 10.0), (1, 1.0, 2.001))), str(b))
        assert run("compare", "--a", a, "--b", b, "--dim", "1", "--q", "1000") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["wasserstein"] == doc["bottleneck"] == pytest.approx(0.001, rel=1e-9)

    def test_compare_refuses_death_below_birth(self, tmp_path, capsys):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(json.dumps({"pairs": [{"dim": 1, "birth": 0.4, "death": 0.1}]}))
        save_diagram(PersistenceDiagram(((1, 0.1, 0.3),)), str(good))
        assert run("compare", "--a", bad, "--b", good, "--dim", "1") == 1
        captured = capsys.readouterr()
        assert "diagram pair 0: death 0.1 is below birth 0.4" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["compare", "landscape"])
    def test_negative_dim_refused(self, tmp_path, capsys, command):
        dia, out = tmp_path / "dia.json", tmp_path / "out.json"
        save_diagram(PersistenceDiagram(((1, 0.0, 2.0),)), str(dia))
        if command == "compare":
            argv = ["compare", "--a", dia, "--b", dia, "--out", out]
        else:
            argv = ["landscape", "--diagram", dia, "--out", out]
        assert run(*argv, "--dim", "-1") == 1
        captured = capsys.readouterr()
        assert "error: dim must be a non-negative integer, got -1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--max-dim", "3"], ["compare", "--a", "x"], ["frobnicate"]],
        ids=["bad-choice", "missing-flag", "unknown-subcommand"],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        # argparse exits 2, the code of a run with some cells failed
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("run", "--help")
        assert exc.value.code == 0
        assert "--max-dim" in capsys.readouterr().out

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
