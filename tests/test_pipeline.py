import json
import os

import numpy as np
import pytest

from dirtda import (
    FrequencyBand,
    PipelineConfig,
    asym_distance,
    decompose,
    fit_var,
    load_diagram,
    load_series,
    pdc_band,
    persistence,
    realize,
    rips_filtration,
    run_pipeline,
    save_series,
    segment,
    standardize,
    system_two,
)
from dirtda.jsonio import read_json


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
        listed = set(doc["artifacts"])
        for name in os.listdir(out):
            if name != "report.json":  # written last, cannot list itself
                assert os.path.join(out, name) in listed

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
