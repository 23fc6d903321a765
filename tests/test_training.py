import math
import re
import sys

import numpy as np
import pytest

from hsmgnn import HSMGNN, ModelConfig, TrainConfig, ablate, evaluate, sweep, train
from hsmgnn import VARIANTS, training
from hsmgnn import tensor as T
from hsmgnn.data import SampleSet, carve_validation, load_cmapss
from hsmgnn.errors import ConfigError, NumericsError


def synthetic_set(n_samples=24, n=3, t=8, seed=0, task="regression", n_classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_samples, n, t))
    w = rng.normal(size=(n, t)) * 0.1
    y = np.einsum("bnt,nt->b", x, w)
    if task == "classification":
        y = (np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))).astype(float)
    return SampleSet(x[:, :, :, None], y, task)


def tiny_cfg(**kw):
    base = dict(n=3, t=8, w_p=4, delta=0.5, d_blocks=2, cnn_hidden=2,
                m_q=2, m_d=3, f_s=4, f_e=4, mlp_widths=(8, 8, 8))
    base.update(kw)
    return ModelConfig(**base)


class TestMetrics:
    def test_perfect_predictions(self):
        r = training.regression_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert r.mae == r.mse == r.rmse == 0.0

    def test_constant_error(self):
        r = training.regression_metrics(np.array([0.0, 0.0]), np.array([3.0, 3.0]))
        assert r.mse == 9.0 and r.rmse == 3.0 and r.mae == 3.0

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(0)
        r = training.regression_metrics(rng.normal(size=50), rng.normal(size=50))
        assert abs(r.rmse ** 2 - r.mse) < 1e-12

    def test_macro_f1_matches_hand_computation(self):
        # confusion: class 0 -> tp=2 fp=1 fn=0; class 1 -> tp=1 fp=1 fn=1;
        # class 2 -> tp=1 fp=0 fn=1
        pred = np.array([0, 0, 0, 1, 1, 2])
        target = np.array([0, 0, 1, 1, 2, 2])
        r = training.classification_metrics(pred, target)
        f1_0 = 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)
        f1_1 = 2 * 0.5 * 0.5 / (0.5 + 0.5)
        f1_2 = 2 * 1.0 * 0.5 / (1.0 + 0.5)
        assert abs(r.mf1 - (f1_0 + f1_1 + f1_2) / 3) < 1e-12
        assert abs(r.accu - 4 / 6) < 1e-12
        assert 0.0 <= r.accu <= 1.0 and 0.0 <= r.mf1 <= 1.0


class TestTrainLoop:
    def test_seeded_determinism(self):
        sset = synthetic_set()
        tc = TrainConfig(batch_size=8, epochs=3, patience=50, seed=11)
        _, r1 = train(tiny_cfg(), tc, sset, sset)
        _, r2 = train(tiny_cfg(), tc, sset, sset)
        assert r1.loss_curve == r2.loss_curve

    def test_patience_one_frozen_metric_stops_after_two_epochs(self):
        # lr=0 freezes the model, so validation never improves after epoch 1
        sset = synthetic_set()
        tc = TrainConfig(batch_size=8, epochs=50, lr=0.0, patience=1, seed=0)
        _, report = train(tiny_cfg(), tc, sset, sset)
        assert len(report.loss_curve) == 2

    def test_best_checkpoint_retained(self):
        sset = synthetic_set()
        tc = TrainConfig(batch_size=8, epochs=4, lr=1e-2, patience=50, seed=1)
        model, report = train(tiny_cfg(), tc, sset, sset)
        fresh = evaluate(model, sset)
        assert abs(fresh.rmse - report.rmse) < 1e-12

    def test_best_epoch_report_is_returned_without_a_second_evaluation(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate", counted)
        sset = synthetic_set()
        tc = TrainConfig(batch_size=8, epochs=4, lr=1e-2, patience=50, seed=1)
        model, report = train(tiny_cfg(), tc, sset, sset)
        assert len(calls) == len(report.loss_curve) == 4  # one per epoch, none after
        fresh = evaluate(model, sset)
        assert (report.mae, report.mse, report.rmse) == (fresh.mae, fresh.mse, fresh.rmse)

    def test_non_finite_validation_score_raises(self, monkeypatch):
        """A diverged model is never returned as trained: no epoch improves on a NaN score."""
        calls = []

        def nan_monitor(*args, **kwargs):
            calls.append(1)
            return training.MetricsReport("regression", rmse=float("nan"))

        monkeypatch.setattr(training, "evaluate", nan_monitor)
        sset = synthetic_set()
        tc = TrainConfig(batch_size=8, epochs=3, lr=1e-2, patience=50, seed=1)
        with pytest.raises(NumericsError, match="non-finite validation score at epoch 0"):
            train(tiny_cfg(), tc, sset, sset)
        assert len(calls) == 1

    def test_no_gradient_outlives_its_step(self, monkeypatch):
        held = []

        def recording(model, *args, **kwargs):
            held.extend(p.grad is not None for p in model.params.values())
            return evaluate(model, *args, **kwargs)

        monkeypatch.setattr(training, "evaluate", recording)
        sset = synthetic_set()
        tc = TrainConfig(batch_size=8, epochs=2, lr=1e-2, patience=50, seed=1)
        model, _ = train(tiny_cfg(), tc, sset, sset)
        assert held and not any(held)
        assert [name for name, p in model.params.items() if p.grad is not None] == []

    def test_empty_data_rejected(self):
        sset = synthetic_set(4)
        with pytest.raises(ConfigError):
            train(tiny_cfg(), TrainConfig(), sset.subset(np.array([], dtype=int)), sset)

    def test_classification_training(self):
        sset = synthetic_set(task="classification")
        cfg = tiny_cfg(n_classes=3)
        tc = TrainConfig(batch_size=8, epochs=2, patience=10, seed=2)
        model, report = train(cfg, tc, sset, sset)
        assert report.task == "classification"
        assert 0.0 <= report.accu <= 1.0


class TestLazySets:
    def test_lazy_and_materialized_sets_train_alike(self, tmp_path):
        from test_data import write_turbofan_files

        write_turbofan_files(tmp_path)
        lazy = load_cmapss(tmp_path, "FD001", window=8)
        plain = SampleSet(lazy.windows, lazy.labels, lazy.task, unit_ids=lazy.unit_ids)
        cfg = tiny_cfg(n=20, t=8)
        tc = TrainConfig(batch_size=8, epochs=2, patience=5, seed=4)
        outcomes = []
        for sset in (lazy, plain):
            fit, valid = carve_validation(sset, 0.2, seed=1)
            assert fit.source is valid.source is sset.source
            model, report = train(cfg, tc, fit, valid)
            model.save(tmp_path / "model.hsmg")
            outcomes.append(({**report.to_dict(), "wall_clock": None},
                             (tmp_path / "model.hsmg").read_bytes(),
                             evaluate(model, fit).to_dict()))
        assert outcomes[0] == outcomes[1]


class TestAblation:
    def test_no_adb_census_lacks_bank(self):
        complete = HSMGNN(tiny_cfg(), seed=0)
        no_adb = HSMGNN(ablate("no-adb", tiny_cfg()), seed=0)
        assert any(k.startswith("adb.") for k in complete.params)
        assert not any(k.startswith("adb.") for k in no_adb.params)

    def test_no_fgcn_drops_euclidean_branch(self):
        no_fgcn = HSMGNN(ablate("no-fgcn", tiny_cfg()), seed=0)
        assert not any(k.startswith("proj_e.") for k in no_fgcn.params)
        # outputs must ignore any Euclidean-branch knobs: the census has none
        assert any(k.startswith("proj_s.") for k in no_fgcn.params)

    def test_no_scs_census(self):
        no_scs = HSMGNN(ablate("no-scs", tiny_cfg()), seed=0)
        assert not any(k.startswith(("cnn.", "adb.", "proj_s.")) for k in no_scs.params)
        assert any(k.startswith("proj_e.") for k in no_scs.params)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ablate("no-everything", tiny_cfg())

    @pytest.mark.parametrize("variant", ["complete", "no-scs", "no-adb", "no-fgcn"])
    def test_all_variants_train(self, variant):
        sset = synthetic_set()
        cfg = ablate(variant, tiny_cfg())
        tc = TrainConfig(batch_size=8, epochs=2, patience=10, seed=0)
        model, report = train(cfg, tc, sset, sset)
        assert np.isfinite(report.rmse)


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_records_no_graph(variant, monkeypatch):
    """Every op output of `predict` is a constant: no parents, no backward closure."""
    made, make = [], T._make
    monkeypatch.setattr(T, "_make", lambda *args: made.append(make(*args)) or made[-1])
    model = HSMGNN(ablate(variant, tiny_cfg()), seed=0)
    x = synthetic_set(5).model_inputs()
    pred = model.predict(x)
    assert made and all(t._backward is None and not t._parents for t in made)
    assert all(p.requires_grad for p in model.params.values())
    out = model.forward(x)
    assert out._backward is not None
    assert np.array_equal(pred, out.data.reshape(-1))


class TestSweep:
    def _sets(self):
        s = synthetic_set()
        return s, s, s

    def test_delta_grid_row_count(self):
        tr, va, te = self._sets()
        tc = TrainConfig(batch_size=8, epochs=1, patience=10, seed=0)
        rows = sweep("delta", [0.1, 0.3, 0.5, 0.7, 0.9], tiny_cfg(), tc, tr, va, te)
        assert len(rows) == 5
        assert [r["value"] for r in rows] == [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_bank_size_grid_accepted(self, monkeypatch):
        trained = []
        monkeypatch.setattr(training, "train", lambda cfg, *a: (trained.append(cfg), None))
        monkeypatch.setattr(training, "evaluate",
                            lambda *a: training.MetricsReport("regression", rmse=0.0))
        tr, va, te = self._sets()
        sweep("m_d", [12, 16, 32, 64, 128], tiny_cfg(), TrainConfig(), tr, va, te)
        sweep("m_q", [32, 64], tiny_cfg(), TrainConfig(), tr, va, te)
        assert [c.m_d for c in trained[:5]] == [12, 16, 32, 64, 128]
        assert [c.m_q for c in trained[5:]] == [32, 64]

    def test_fusion_weight_pairs(self):
        tr, va, te = self._sets()
        tc = TrainConfig(batch_size=8, epochs=1, patience=10, seed=0)
        rows = sweep("fusion_weights", [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)],
                     tiny_cfg(), tc, tr, va, te)
        assert len(rows) == 3

    def test_invalid_value_rejected_before_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(training, "train", lambda cfg, *a: trained.append(cfg))
        tr, va, te = self._sets()
        with pytest.raises(ConfigError):
            sweep("delta", [0.5, 1.5], tiny_cfg(), TrainConfig(), tr, va, te)
        assert trained == []

    def test_unknown_param(self):
        tr, va, te = self._sets()
        with pytest.raises(ConfigError):
            sweep("gamma", [1], tiny_cfg(), TrainConfig(), tr, va, te)


class TestModelConfig:
    def test_round_trip(self):
        cfg = tiny_cfg(w_s=0.2, w_e=0.8)
        assert ModelConfig(**cfg.to_dict()) == cfg

    def test_eps_spd_with_an_infinite_ridge_is_rejected(self):
        """The base adjacency adds num_windows * eps_spd**2 to the diagonal; at TINY's
        num_windows = 3 the largest admissible eps_spd is sqrt(max_float / 3)."""
        bound = math.sqrt(sys.float_info.max / tiny_cfg().num_windows)
        assert tiny_cfg(eps_spd=0.99 * bound).eps_spd == 0.99 * bound
        message = re.escape(f"eps_spd must be below {bound:.4g},")
        for eps in (1.01 * bound, 1e300):
            with pytest.raises(ConfigError, match=message):
                tiny_cfg(eps_spd=eps)

    def test_checkpoint_round_trip(self, tmp_path):
        model = HSMGNN(tiny_cfg(), seed=3)
        path = tmp_path / "model.hsmg"
        model.save(path)
        other = HSMGNN(tiny_cfg(), seed=4)
        other.load(path)
        for k in model.params:
            assert np.array_equal(model.params[k].data, other.params[k].data)

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        model = HSMGNN(tiny_cfg(), seed=0)
        path = tmp_path / "model.hsmg"
        model.save(path)
        with pytest.raises(ConfigError):
            HSMGNN(ablate("no-adb", tiny_cfg()), seed=0).load(path)
