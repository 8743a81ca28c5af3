import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dirtda import (
    FrequencyBand,
    MultivariateSeries,
    PipelineConfig,
    asym_distance,
    decompose,
    fit_var,
    landscape,
    landscape_distance,
    load_diagram,
    load_series,
    pdc_band,
    persistence,
    realize,
    rips_filtration,
    run_pipeline,
    save_series,
    segment,
    shared_t_max,
    standardize,
    system_two,
)
import dirtda
from dirtda import var
from dirtda.cli import main
from dirtda.jsonio import read_json
from dirtda.pdc import network_from_dict
from dirtda.pipeline import CONFIG_KEYS
from dirtda.var import OrderCriterion, _gram_factor, _lagged_gram


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "series.csv")
    save_series(realize(system_two(), 1600, seed=3), path)
    return path


def config(series_csv, out_dir, **kw):
    base = dict(
        input_path=series_csv,
        sampling_rate_hz=1.0,
        out_dir=out_dir,
        windows=(("w1", 0.0, 800.0), ("w2", 800.0, 1600.0)),
        bands=(FrequencyBand("peak", 0.18, 0.28),),
        order=3,
        max_dim=2,
    )
    base.update(kw)
    return PipelineConfig(**base)


# every field away from its default, so a key that to_dict drops or
# misnames cannot round-trip by falling back to the default
EVERY_FIELD = dict(
    input_path="in.csv",
    sampling_rate_hz=250.0,
    out_dir="o",
    windows=(("a", 0.0, 1.5), ("b", 1.5, 3.0)),
    bands=(FrequencyBand("x", 1.0, 2.0),),
    order=2,
    select_k_max=7,
    criterion="aic",
    n_grid=9,
    max_dim=1,
    standardize=False,
    landscape_k_max=3,
    landscape_n_grid=40,
    wasserstein_q=2.5,
)


class TestPipelineConfig:
    def test_dict_round_trip(self, series_csv):
        cfg = config(series_csv, "out")
        back = PipelineConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_every_key_round_trips(self):
        default = PipelineConfig("", 1.0, "")
        assert set(EVERY_FIELD) == {f.name for f in dataclasses.fields(PipelineConfig)}
        assert all(getattr(default, k) != v for k, v in EVERY_FIELD.items())
        cfg = PipelineConfig(**EVERY_FIELD)
        assert set(cfg.to_dict()) == CONFIG_KEYS
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
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
    )
    def test_out_of_range_field_rejected_when_built(self, series_csv, key, value):
        # a config built directly, not read from JSON, is checked as strictly
        with pytest.raises(ValueError, match=f"config key '{key}': must be "):
            config(series_csv, "out", **{key: value})

    @pytest.mark.parametrize("fs", [0.0, -1.0, float("inf"), float("nan")])
    def test_sampling_rate_not_finite_and_positive_rejected(self, fs):
        # an infinite rate used to pass, and every window became [0.0, 0.0)
        with pytest.raises(ValueError, match="config key 'fs_hz': must be finite and > 0"):
            PipelineConfig.from_dict({"input": "x.csv", "fs_hz": fs, "out_dir": "o"})

    @pytest.mark.parametrize(
        "field, key, value",
        [
            ("criterion", "criterion", OrderCriterion.AIC),
            ("criterion", "criterion", "AIC"),
            ("standardize", "standardize", "no"),
            ("max_dim", "max_dim", True),
            ("order", "order", 3.5),
            ("select_k_max", "select_k_max", 2.0),
            ("sampling_rate_hz", "fs_hz", "1.0"),
            ("wasserstein_q", "wasserstein_q", True),
            ("input_path", "input", None),
            ("windows", "windows", [("w1", 0.0, 800.0)]),
            ("windows", "windows", (("w1", "0", 800.0),)),
            ("bands", "bands", (("peak", 0.18, 0.28),)),
        ],
        ids=["criterion-enum", "criterion-upper", "standardize-text", "max_dim-bool",
             "order-float", "select_k_max-float", "fs_hz-text", "wasserstein_q-bool",
             "input-null", "windows-list", "window-start-text", "bands-tuples"],
    )
    def test_wrong_type_rejected_before_any_write(self, series_csv, tmp_path, field, key, value):
        # a config built in Python used to take these: the enum wrote the
        # artifacts and then failed on report.json, "no" standardized, True
        # was written as max_dim true, and 3.5 or "AIC" failed every window
        out = tmp_path / "out"
        message = f"config key '{key}': must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            run_pipeline(config(series_csv, str(out), **{field: value}))
        assert not out.exists()

    @pytest.mark.parametrize(
        "start, end",
        [(900.0, 100.0), (100.0, 100.0), (float("nan"), 100.0), (-5.0, 100.0), (0.0, float("inf"))],
        ids=["inverted", "empty", "nan-start", "negative-start", "infinite-end"],
    )
    def test_bad_window_span_rejected_before_any_write(self, series_csv, tmp_path, start, end):
        # these used to read the whole CSV and write a report.json holding
        # only the window's failure
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="config key 'windows': must be "):
            run_pipeline(config(series_csv, str(out), windows=(("w", start, end),)))
        assert not out.exists()

    def test_duplicate_band_names_rejected_when_built(self, series_csv):
        # without windows, the one window is named "full"
        bands = (FrequencyBand("b", 0.1, 0.2), FrequencyBand("b", 0.2, 0.3))
        message = r"cell \('full', 'b'\) and cell \('full', 'b'\) would both write diagram_full_b.json"
        with pytest.raises(ValueError, match=message):
            config(series_csv, "out", windows=(), bands=bands)

    def test_numbers_become_floats(self):
        cfg = PipelineConfig.from_dict({
            "input": "x.csv", "fs_hz": 100, "out_dir": "o", "wasserstein_q": 2,
            "windows": {"b": [1, 2], "a": [0, 1]}, "bands": {"x": [1, 2]},
        })
        assert cfg.windows == (("a", 0.0, 1.0), ("b", 1.0, 2.0))
        assert cfg.bands == (FrequencyBand("x", 1.0, 2.0),)
        doc = cfg.to_dict()
        assert [doc["fs_hz"], doc["wasserstein_q"], *doc["windows"]["a"], *doc["bands"]["x"]] == [
            100.0, 2.0, 0.0, 1.0, 1.0, 2.0
        ]
        assert all(type(v) is float for v in (doc["fs_hz"], doc["wasserstein_q"], *doc["bands"]["x"]))

    def test_defaults_from_minimal_doc(self):
        cfg = PipelineConfig.from_dict(
            {"input": "x.csv", "fs_hz": 100.0, "out_dir": "o"}
        )
        assert cfg.order == 5
        assert cfg.n_grid == 32
        assert cfg.max_dim == 2
        assert cfg.standardize is True
        assert [b.name for b in cfg.bands] == ["delta", "alpha", "beta", "gamma"]


class TestRunPipeline:
    def test_cell_combinatorics(self, series_csv, tmp_path):
        # 2 windows x 2 bands -> 4 diagrams, 1 cross-window pair per band
        out = str(tmp_path / "out")
        bands = (FrequencyBand("a", 0.1, 0.2), FrequencyBand("b", 0.2, 0.3))
        report = run_pipeline(config(series_csv, out, bands=bands))
        assert report.n_succeeded == 4
        assert not report.failures
        diagrams = [f for f in os.listdir(out) if f.startswith("diagram_") and f.endswith(".json")]
        assert len(diagrams) == 4
        assert set(report.distances) == {"a", "b"}
        assert set(report.distances["a"]) == {"w1|w2"}
        assert set(report.distances["a"]["w1|w2"]) == {"0", "1", "2"}

    def test_single_full_window(self, series_csv, tmp_path):
        out = str(tmp_path / "out")
        report = run_pipeline(config(series_csv, out, windows=()))
        assert report.n_succeeded == 1
        assert list(report.cells) == ["full"]
        assert report.distances == {}

    def test_failure_isolation(self, series_csv, tmp_path):
        out = str(tmp_path / "out")
        bands = (FrequencyBand("peak", 0.18, 0.28), FrequencyBand("bad", 0.6, 0.9))
        report = run_pipeline(config(series_csv, out, bands=bands))
        assert report.n_succeeded == 2
        assert len(report.failures) == 2
        assert {f["band"] for f in report.failures} == {"bad"}
        assert all("Nyquist" in f["error"] for f in report.failures)
        # surviving cells still wrote their artifacts
        assert os.path.exists(os.path.join(out, "diagram_w1_peak.json"))

    def test_report_written(self, series_csv, tmp_path):
        out = str(tmp_path / "out")
        report = run_pipeline(config(series_csv, out))
        doc = read_json(os.path.join(out, "report.json"))
        assert doc["cells"] == report.cells
        assert doc["failures"] == []
        # names relative to out_dir, so a moved result directory stays valid
        listed = set(doc["artifacts"])
        assert listed == set(os.listdir(out)) - {"report.json"}  # written last
        assert report.artifacts[-1] == "report.json"

    def test_svg_titles_escaped(self, series_csv, tmp_path):
        out = tmp_path / "out"
        band = FrequencyBand("R&D <1>", 0.18, 0.28)
        assert run_pipeline(config(series_csv, str(out), bands=(band,))).n_succeeded == 2
        svgs = sorted(out.glob("*.svg"))
        assert len(svgs) == 2 * (1 + 3)  # per window: a diagram and 3 landscapes
        for path in svgs:
            title = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}text")
            window = "w1" if "_w1_" in path.name else "w2"
            want = f"{window} / R&D <1>"
            if path.name.startswith("landscape_"):
                want += f" dim {path.stem[-1]}"
            assert title.text == want

    def test_integration_equals_composition(self, series_csv, tmp_path):
        # the pipeline's diagram for (w2, peak) must equal the chained module calls
        out = str(tmp_path / "out")
        cfg = config(series_csv, out)
        run_pipeline(cfg)
        from_report = load_diagram(os.path.join(out, "diagram_w2_peak.json"))

        win = standardize(segment(load_series(series_csv, 1.0), 800.0, 1600.0))
        model = fit_var(win, 3)
        net = pdc_band(model, cfg.bands[0], 1.0, cfg.n_grid, win.channel_labels)
        manual = persistence(rips_filtration(asym_distance(decompose(net)), 2))
        assert from_report.pairs == manual.pairs

    def test_duplicate_window_names_rejected(self, series_csv, tmp_path):
        with pytest.raises(ValueError):
            cfg = config(series_csv, str(tmp_path / "out"),
                         windows=(("w", 0.0, 400.0), ("w", 400.0, 800.0)))
            run_pipeline(cfg)

    def test_all_cells_failing_reported(self, series_csv, tmp_path):
        out = str(tmp_path / "out")
        report = run_pipeline(
            config(series_csv, out, bands=(FrequencyBand("bad", 0.6, 0.9),))
        )
        assert report.n_succeeded == 0
        assert len(report.failures) == 2

    def test_window_failure_poisons_only_its_cells(self, series_csv, tmp_path):
        out = str(tmp_path / "out")
        report = run_pipeline(
            config(series_csv, out,
                   windows=(("good", 0.0, 800.0), ("late", 1500.0, 5000.0)))
        )
        assert report.n_succeeded == 1
        assert {f["window"] for f in report.failures} == {"late"}


    @pytest.mark.parametrize(
        "windows, bands, names",
        [
            ((("a b", 0.0, 400.0), ("a-b", 400.0, 800.0)), ("peak",), ("'a b'", "'a-b'")),
            ((("a_b", 0.0, 400.0), ("a", 400.0, 800.0)), ("c", "b_c"), ("'a_b'", "'b_c'")),
        ],
    )
    def test_artifact_name_collision_rejected(self, series_csv, tmp_path, windows, bands, names):
        out = tmp_path / "out"
        bands = tuple(FrequencyBand(name, 0.18, 0.28) for name in bands)
        with pytest.raises(ValueError, match="would both write") as err:
            run_pipeline(config(series_csv, str(out), windows=windows, bands=bands))
        assert all(name in str(err.value) for name in names)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a\x01", "a\ud800"], ids=["control", "surrogate"])
    @pytest.mark.parametrize("key", ["windows", "bands"])
    def test_name_xml_cannot_hold_rejected_before_any_write(self, series_csv, tmp_path, key, name):
        # "a\x01" used to write SVGs that no XML parser reads, and "a\ud800"
        # stopped the run with UnicodeEncodeError after its first writes
        out = tmp_path / "out"
        windows = ((name if key == "windows" else "w1", 0.0, 800.0),)
        bands = (FrequencyBand(name if key == "bands" else "peak", 0.18, 0.28),)
        message = f"config key '{key}': name {re.escape(repr(name))} holds a character XML"
        with pytest.raises(ValueError, match=message):
            run_pipeline(config(series_csv, str(out), windows=windows, bands=bands))
        assert not out.exists()

    def test_window_name_holding_bar_rejected_before_any_write(self, series_csv, tmp_path):
        # the pairs ("a|b", "c") and ("a", "b|c") used to share the distance
        # key "a|b|c", and the second overwrote the first without a failure
        out = tmp_path / "out"
        windows = (("a|b", 0.0, 400.0), ("c", 400.0, 800.0),
                   ("a", 800.0, 1200.0), ("b|c", 1200.0, 1600.0))
        message = re.escape("config key 'windows': name 'a|b' holds '|'")
        with pytest.raises(ValueError, match=message):
            run_pipeline(config(series_csv, str(out), windows=windows))
        assert not out.exists()

    def test_distance_failure_isolated_to_its_pair(self, series_csv, tmp_path, monkeypatch):
        import dirtda.pipeline

        real = dirtda.pipeline.bottleneck
        calls = []

        def flaky(a, b, dim):
            # one call per dim (0..2) and window pair: the 4th opens w1|w3
            calls.append(dim)
            if len(calls) == 4:
                raise AssertionError("no feasible radius")
            return real(a, b, dim)

        monkeypatch.setattr(dirtda.pipeline, "bottleneck", flaky)
        windows = (("w1", 0.0, 500.0), ("w2", 500.0, 1000.0), ("w3", 1000.0, 1600.0))
        out = str(tmp_path / "out")
        report = run_pipeline(config(series_csv, out, windows=windows))
        assert report.failures == [
            {"window": "w1|w3", "band": "peak", "error": "AssertionError: no feasible radius"}
        ]
        assert report.n_succeeded == 3
        assert set(report.distances["peak"]) == {"w1|w2", "w2|w3"}
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["failures"] == report.failures

    def test_mixed_failures_in_pass_order(self, series_csv, tmp_path, monkeypatch):
        # window failures, then cell failures window by window, then
        # distance failures band by band
        import dirtda.pipeline

        real = dirtda.pipeline.bottleneck
        calls = []

        def flaky(a, b, dim):
            # per band, one call per dim (0..2) and window pair; band "a"
            # runs first, so the 4th call opens a's w1|w3
            calls.append(dim)
            if len(calls) == 4:
                raise AssertionError("no feasible radius")
            return real(a, b, dim)

        monkeypatch.setattr(dirtda.pipeline, "bottleneck", flaky)
        windows = (("w1", 0.0, 500.0), ("late", 1500.0, 2000.0),
                   ("w2", 500.0, 1000.0), ("w3", 1000.0, 1600.0))
        bands = (FrequencyBand("a", 0.18, 0.28), FrequencyBand("over", 0.4, 0.6),
                 FrequencyBand("b", 0.02, 0.12))
        out = tmp_path / "out"
        report = run_pipeline(config(series_csv, str(out), windows=windows, bands=bands))
        late = "window end 2000.0s exceeds recording length 1600.0s"
        nyquist = "band 'over' ends at 0.6 Hz, beyond Nyquist 0.5 Hz"
        assert report.failures == [
            {"window": "late", "band": "a", "error": late},
            {"window": "late", "band": "over", "error": late},
            {"window": "late", "band": "b", "error": late},
            {"window": "w1", "band": "over", "error": nyquist},
            {"window": "w2", "band": "over", "error": nyquist},
            {"window": "w3", "band": "over", "error": nyquist},
            {"window": "w1|w3", "band": "a", "error": "AssertionError: no feasible radius"},
        ]
        assert set(report.distances) == {"a", "b"}
        assert set(report.distances["a"]) == {"w1|w2", "w2|w3"}
        assert set(report.distances["b"]) == {"w1|w2", "w1|w3", "w2|w3"}
        assert read_json(out / "report.json")["failures"] == report.failures

    def test_rank_deficient_window_fails_only_its_cells(self, tmp_path):
        # channel 4 copies channel 2 inside w2 only, so w2's lag design is
        # singular: order selection takes the QR path and names the condition
        s = realize(system_two(), 1600, seed=3)
        x = s.samples.copy()
        x[500:1000, 3] = x[500:1000, 1]
        path = str(tmp_path / "series.csv")
        save_series(MultivariateSeries(x, s.sampling_rate_hz, s.channel_labels), path)
        windows = (("w1", 0.0, 500.0), ("w2", 500.0, 1000.0), ("w3", 1000.0, 1600.0))
        bands = (FrequencyBand("a", 0.18, 0.28), FrequencyBand("b", 0.02, 0.12))
        out = tmp_path / "out"
        report = run_pipeline(
            config(path, str(out), windows=windows, bands=bands, select_k_max=6)
        )
        assert [(f["window"], f["band"]) for f in report.failures] == [("w2", "a"), ("w2", "b")]
        assert all("singular lag regression (condition" in f["error"] for f in report.failures)
        assert report.n_succeeded == 4
        assert {band: set(pairs) for band, pairs in report.distances.items()} == {
            "a": {"w1|w3"}, "b": {"w1|w3"}
        }
        assert read_json(out / "report.json")["failures"] == report.failures


class TestArtifactContract:
    """run writes only what no other file of out_dir determines."""

    BANDS = (FrequencyBand("a", 0.1, 0.2), FrequencyBand("b", 0.2, 0.3))

    def test_dropped_artifacts_rebuild_bit_for_bit(self, series_csv, tmp_path):
        out = tmp_path / "out"
        cfg = config(series_csv, str(out), bands=self.BANDS)
        assert run_pipeline(cfg).n_succeeded == 4
        assert not [
            name
            for name in os.listdir(out)
            if name.startswith("decomp_")
            or (name.startswith("landscape_") and name.endswith(".json"))
        ]
        doc = read_json(str(out / "report.json"))
        levels = (cfg.landscape_k_max, cfg.landscape_n_grid)

        series = load_series(series_csv, 1.0)
        for band in cfg.bands:
            chain = {}
            for w, lo, hi in cfg.windows:
                win = standardize(segment(series, lo, hi))
                net = pdc_band(fit_var(win, 3), band, 1.0, cfg.n_grid, win.channel_labels)
                dec = decompose(net)
                chain[w] = (dec, persistence(rips_filtration(asym_distance(dec), 2)))
            t_max = doc["cells"]["w1"][band.name]["t_max"]
            assert t_max == shared_t_max(*(dia for _, dia in chain.values()))
            assert doc["cells"]["w2"][band.name]["t_max"] == t_max

            rebuilt = {}
            for w, (dec, dia) in chain.items():
                stem = f"{w}_{band.name}"
                got = decompose(network_from_dict(read_json(str(out / f"network_{stem}.json"))))
                assert np.array_equal(got.w_s, dec.w_s)
                assert np.array_equal(got.w_a, dec.w_a)
                assert np.array_equal(asym_distance(got).dist, asym_distance(dec).dist)
                stored = load_diagram(str(out / f"diagram_{stem}.json"))
                rebuilt[w] = [landscape(stored, k, *levels, t_max) for k in range(3)]
                for k, ls in enumerate(rebuilt[w]):
                    want = landscape(dia, k, *levels, t_max)
                    assert np.array_equal(ls.grid, want.grid)
                    assert np.array_equal(ls.levels, want.levels)
            for k in range(3):
                l2 = landscape_distance(rebuilt["w1"][k], rebuilt["w2"][k], 2)
                assert l2 == doc["distances"][band.name]["w1|w2"][str(k)]["landscape_l2"]

        # the stage commands rebuild the same files from the kept ones
        dec, _ = chain["w2"]  # band b, the last of the loop
        dec_path, land_path = tmp_path / "decomp.json", tmp_path / "landscape.json"
        assert main(["decompose", "--network", str(out / "network_w2_b.json"),
                     "--out", str(dec_path)]) == 0
        from_cli = read_json(str(dec_path))
        for key, want in (("w_s", dec.w_s), ("w_a", dec.w_a), ("dist", asym_distance(dec).dist)):
            assert np.array_equal(np.array(from_cli[key]), want)
        assert main(["landscape", "--diagram", str(out / "diagram_w2_b.json"), "--dim", "1",
                     "--k-max", str(levels[0]), "--n-grid", str(levels[1]),
                     "--t-max", repr(t_max), "--out", str(land_path)]) == 0
        from_cli = read_json(str(land_path))
        assert from_cli["dim"] == 1
        assert np.array_equal(np.array(from_cli["grid"]), rebuilt["w2"][1].grid)
        assert np.array_equal(np.array(from_cli["levels"]), rebuilt["w2"][1].levels)

    def test_rerun_removes_what_the_previous_report_listed(self, series_csv, tmp_path):
        out = tmp_path / "out"
        run_pipeline(config(series_csv, str(out), bands=self.BANDS))
        (out / "notes.txt").write_text("never listed\n", encoding="utf-8")
        run_pipeline(config(series_csv, str(out), bands=self.BANDS[:1]))
        listed = read_json(str(out / "report.json"))["artifacts"]
        # 2 models; per cell a network, a diagram, its plot and 3 landscape plots
        assert len(listed) == 2 + 2 * 6
        assert set(os.listdir(out)) == set(listed) | {"report.json", "notes.txt"}

    def test_previous_report_cannot_reach_outside_out_dir(self, series_csv, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        victims = [tmp_path / "victim.txt", out / "sub" / "notes.txt"]
        for path in victims:
            path.write_text("keep\n", encoding="utf-8")
        listed = ["../victim.txt", str(victims[0]), "sub/notes.txt", "sub", ".", "..", ""]
        (out / "report.json").write_text(json.dumps({"artifacts": listed}), encoding="utf-8")
        report = run_pipeline(config(series_csv, str(out)))
        assert all(path.read_text(encoding="utf-8") == "keep\n" for path in victims)
        assert set(os.listdir(out)) == set(report.artifacts) | {"sub"}

    @pytest.mark.parametrize("planted", ["{not json", "[]", '{"artifacts": "model_w1.json"}'])
    def test_unusable_previous_report_is_ignored(self, series_csv, tmp_path, planted):
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text(planted, encoding="utf-8")
        report = run_pipeline(config(series_csv, str(out)))
        assert read_json(str(out / "report.json"))["artifacts"] == sorted(report.artifacts[:-1])


needs_blas_hook = pytest.mark.skipif(
    var._blas_thread_hook() is None,
    reason="numpy's BLAS exports no OpenBLAS thread-count functions, so a fit "
    "keeps the caller's BLAS settings",
)

# runs the config given as JSON, then `dirtda fit` of the same input and
# order into the path given second; prints each file of out_dir, and then
# the fitted model, with its sha256
_RUN_AND_HASH = """
import hashlib, json, os, sys
from dirtda import PipelineConfig, run_pipeline
from dirtda.cli import main
config = PipelineConfig.from_dict(json.loads(sys.argv[1]))
run_pipeline(config)
main(["fit", "--input", config.input_path, "--fs", str(config.sampling_rate_hz),
      "--order", str(config.order), "--out", sys.argv[2]])
paths = [os.path.join(config.out_dir, name) for name in sorted(os.listdir(config.out_dir))]
for path in [*paths, sys.argv[2]]:
    with open(path, "rb") as handle:
        print(os.path.basename(path), hashlib.sha256(handle.read()).hexdigest())
"""


def _count_inside_fits(monkeypatch, get, before=lambda: None):
    """Record the BLAS thread count inside each fit, where the fit forms its
    Gram matrix; before runs there first."""
    seen = []
    lagged_gram = var._lagged_gram

    def gram(*args):
        seen.append(get())
        before()
        return lagged_gram(*args)

    monkeypatch.setattr(var, "_lagged_gram", gram)
    return seen


@needs_blas_hook
class TestOneBlasThread:
    @pytest.fixture
    def blas(self):
        """OpenBLAS's (get, set), with the count put back after the test."""
        get, set_ = var._blas_thread_hook()
        before = get()
        yield get, set_
        set_(before)

    def test_qr_fallback_window_same_bytes_at_any_thread_count(self, tmp_path):
        # channel 31 nearly repeats channel 0, so the window's Gram factor is
        # too ill-conditioned and the fit takes the QR of the design, whose
        # bits moved with the BLAS thread count at this width
        x = np.random.default_rng(0).standard_normal((4000, 32))
        x[1:] += 0.5 * x[:-1]
        x[:, 31] = x[:, 0] + 1e-4 * np.random.default_rng(1).standard_normal(4000)
        path = str(tmp_path / "wide.csv")
        np.savetxt(path, x, delimiter=",")
        window = standardize(load_series(path, 100.0)).samples
        assert _gram_factor(_lagged_gram(window, 3)) is None
        doc = {"input": path, "fs_hz": 100.0, "out_dir": str(tmp_path / "out"), "order": 3,
               "max_dim": 1, "bands": {"beta": [12.0, 30.0]}}
        src = os.path.dirname(os.path.dirname(os.path.abspath(dirtda.__file__)))
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", _RUN_AND_HASH, json.dumps(doc), str(tmp_path / "fit.json")],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            lines = dict(line.split() for line in done.stdout.splitlines())
            # the stage command writes the run's model, byte for byte
            assert lines.pop("fit.json") == lines["model_full.json"]
            hashes.append(lines)
        # model, network, diagram and its plot, two landscape plots, report
        assert len(hashes[0]) == 7
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("threads", [2, 1])
    def test_run_on_one_thread_then_caller_count_back(
        self, series_csv, tmp_path, monkeypatch, blas, threads
    ):
        get, set_ = blas
        seen = _count_inside_fits(monkeypatch, get)
        set_(threads)
        run_pipeline(config(series_csv, str(tmp_path / "out")))
        assert seen == [1, 1]
        assert get() == threads

    def test_caller_count_back_after_a_run_raises(self, series_csv, tmp_path, monkeypatch, blas):
        get, set_ = blas

        def interrupt():
            raise RuntimeError("interrupted inside the fit")

        seen = _count_inside_fits(monkeypatch, get, interrupt)
        set_(2)
        with pytest.raises(RuntimeError, match="interrupted inside the fit"):
            run_pipeline(config(series_csv, str(tmp_path / "out")))
        assert seen == [1]
        assert get() == 2

    def test_two_runs_at_once_leave_the_count_as_found(
        self, series_csv, tmp_path, monkeypatch, blas
    ):
        # "first" opens a fit's scope, "second" opens its own while "first"
        # is inside, and "second" closes last: the count it found on entry
        # was 1
        get, set_ = blas
        inside = {"first": threading.Event(), "second": threading.Event()}
        first_done = threading.Event()

        def hold():
            name = threading.current_thread().name
            if not inside[name].is_set():
                inside[name].set()
                (inside["second"] if name == "first" else first_done).wait(60)

        def run(name):
            run_pipeline(config(series_csv, str(tmp_path / name)))
            if name == "first":
                first_done.set()

        seen = _count_inside_fits(monkeypatch, get, hold)
        set_(2)
        threads = {name: threading.Thread(target=run, args=(name,), name=name) for name in inside}
        threads["first"].start()
        assert inside["first"].wait(60)
        threads["second"].start()
        for thread in threads.values():
            thread.join(120)
            assert not thread.is_alive()
        assert first_done.is_set() and os.path.exists(tmp_path / "second" / "report.json")
        assert seen == [1] * 4
        assert get() == 2

    def test_scopes_in_many_threads_keep_one_thread_inside(self, blas):
        # more threads than cores and a short switch interval, so scopes open
        # and close interleaved; a lost update of the shared depth would let
        # one scope's exit restore the count while another is still open
        get, set_ = blas
        set_(2)
        counts = []

        def enter_and_leave():
            for _ in range(5000):
                with var._one_blas_thread():
                    counts.append(get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_and_leave) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * 30000
        assert get() == 2 and var._blas_depth == 0
