import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dirtda import (
    FrequencyBand,
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
from dirtda.cli import main
from dirtda.jsonio import read_json
from dirtda.pdc import network_from_dict
from dirtda.summaries import landscape_from_dict


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


class TestPipelineConfig:
    def test_dict_round_trip(self, series_csv):
        cfg = config(series_csv, "out")
        back = PipelineConfig.from_dict(cfg.to_dict())
        assert back == cfg

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
        cfg = config(series_csv, str(tmp_path / "out"),
                     windows=(("w", 0.0, 400.0), ("w", 400.0, 800.0)))
        with pytest.raises(ValueError):
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
        from_cli = landscape_from_dict(read_json(str(land_path)))
        assert np.array_equal(from_cli.grid, rebuilt["w2"][1].grid)
        assert np.array_equal(from_cli.levels, rebuilt["w2"][1].levels)

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
