import numpy as np
import pytest

from biasaudit.synth import (GenSpec, MultiDatasetSpec, gen_mixed,
                             gen_multidataset, write_table_csv)
from biasaudit.tabular import load_csv


class TestGenMixed:
    def test_pure_causal_decorrelates_latent(self):
        spec = GenSpec(n=2000, m=3, k=1, alpha=1.0, seed=1)
        table, truth = gen_mixed(spec)
        z = truth.latents[:, 0]
        for j in range(3):
            x = table.column(f"vol_x{j + 1}")
            corr = np.corrcoef(x, z)[0, 1]
            assert abs(corr) < 3 / np.sqrt(spec.n)

    def test_pure_confounded_partial_correlation_vanishes(self):
        spec = GenSpec(n=2000, m=1, k=1, alpha=0.0, seed=2)
        table, truth = gen_mixed(spec)
        x = table.column("vol_x1")
        y = table.column("vol_y")
        z = truth.latents[:, 0]
        # residualize both on z; remaining correlation should be ~0
        rx = x - np.polyval(np.polyfit(z, x, 1), z)
        ry = y - np.polyval(np.polyfit(z, y, 1), z)
        denom = np.std(rx) * np.std(ry)
        if denom < 1e-12:
            return  # x is an exact copy of z: nothing left to correlate
        assert abs(np.mean(rx * ry) / denom) < 3 / np.sqrt(spec.n)

    def test_deterministic(self):
        a, _ = gen_mixed(GenSpec(n=50, alpha=0.5, seed=3))
        b, _ = gen_mixed(GenSpec(n=50, alpha=0.5, seed=3))
        np.testing.assert_array_equal(a.features, b.features)
        assert a.ids == b.ids

    def test_unit_variance_columns(self):
        for alpha in (0.0, 0.3, 1.0):
            table, _ = gen_mixed(GenSpec(n=20_000, m=3, k=2, alpha=alpha, seed=4))
            for j in range(3):
                sd = float(np.std(table.column(f"vol_x{j + 1}")))
                assert abs(sd - 1.0) < 4 / np.sqrt(20_000) * 2

    def test_replay_reproduces_target_exactly(self):
        spec = GenSpec(n=200, m=3, k=1, alpha=0.4, seed=5)
        table, truth = gen_mixed(spec)
        causes = np.column_stack([table.column(f"vol_x{j + 1}") for j in range(3)])
        np.testing.assert_array_equal(truth.replay_target(causes),
                                      table.column("vol_y"))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(alpha=1.5)
        with pytest.raises(ValueError):
            GenSpec(n=5)
        with pytest.raises(ValueError):
            GenSpec(noise_sd=0.0)


class TestGenMultidataset:
    def test_moments_match_spec(self):
        spec = MultiDatasetSpec(n_per_dataset=5000, shifts=(0.0, 2.0), seed=6)
        table = gen_multidataset(spec)
        for d, shift in enumerate(spec.shifts):
            mask = table.dataset_labels == f"ds{d:02d}"
            values = table.features[mask]
            tol = 4 / np.sqrt(values.size)
            assert abs(np.mean(values) - shift) < tol
            assert abs(np.std(values) - 1.0) < tol * 2

    def test_labels_and_sizes(self):
        table = gen_multidataset(MultiDatasetSpec(n_per_dataset=30,
                                                  shifts=(0.0, 0.0, 0.0), seed=7))
        assert table.labels() == ["ds00", "ds01", "ds02"]
        assert table.n_rows == 90

    def test_needs_two_datasets(self):
        with pytest.raises(ValueError):
            MultiDatasetSpec(shifts=(0.0,))


class TestCsvRoundTrip:
    def test_full_precision_round_trip(self, tmp_path):
        table, truth = gen_mixed(GenSpec(n=40, m=2, alpha=0.8, seed=8))
        path = tmp_path / "round.csv"
        write_table_csv(table, path)
        loaded, report = load_csv(path)
        assert report.n_rejected == 0
        np.testing.assert_array_equal(loaded.features, table.features)
        np.testing.assert_array_equal(loaded.ages, table.ages)
        assert loaded.ids == table.ids
        # replay still exact after the round trip
        causes = np.column_stack([loaded.column("vol_x1"), loaded.column("vol_x2")])
        np.testing.assert_array_equal(truth.replay_target(causes),
                                      loaded.column("vol_y"))
