import json

import numpy as np
import pytest

from hsmgnn import VARIANTS, training
from hsmgnn import data as D
from hsmgnn.checkpoint import load_checkpoint
from hsmgnn.cli import main

TINY = {
    "w_p": 4, "delta": 0.5, "d_blocks": 2, "cnn_hidden": 2, "m_q": 2, "m_d": 3,
    "f_s": 4, "f_e": 4, "mlp_widths": [8, 8, 8],
    "batch_size": 8, "epochs": 2, "patience": 10, "seed": 0, "valid_frac": 0.25,
}


@pytest.fixture
def toy_data(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 3, 8))
    y = rng.normal(size=16) * 0.3
    path = tmp_path / "toy.mtsd"
    D.save_canonical(path, D.SampleSet(x[:, :, :, None], y, "regression"))
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


class TestPrepare:
    def _csv(self, tmp_path):
        path = tmp_path / "toy.csv"
        rows = ["a,b,label"]
        rng = np.random.default_rng(1)
        for _ in range(8):
            rows.append(f"{rng.normal()},{rng.normal()},{rng.normal()}")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_csv_prepare_and_rerun_identical(self, tmp_path, capsys):
        src = self._csv(tmp_path)
        out = tmp_path / "toy.mtsd"
        args = ["prepare", "--dataset", "csv", "--input", str(src),
                "--output", str(out), "--window", "2"]
        assert main(args) == 0
        assert "task=regression" in capsys.readouterr().out
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_ragged_row_exit_code_and_message(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        lines = ["a,b,label"] + ["1,2,0.5"] * 15 + ["1,2"]
        src.write_text("\n".join(lines) + "\n")
        code = main(["prepare", "--dataset", "csv", "--input", str(src),
                     "--output", str(tmp_path / "x.mtsd")])
        assert code == 2
        assert "line 17" in capsys.readouterr().err

    def test_cmapss_prepare_writes_both_splits(self, tmp_path, capsys):
        from test_data import write_turbofan_files

        write_turbofan_files(tmp_path)
        out = tmp_path / "fd001.mtsd"
        assert main(["prepare", "--dataset", "cmapss", "--input", str(tmp_path),
                     "--output", str(out), "--subset", "FD001", "--window", "8"]) == 0
        assert "task=regression" in capsys.readouterr().out
        train = D.load_canonical(out)
        test = D.load_canonical(tmp_path / "fd001_test.mtsd")
        assert train.task == "regression"
        assert len(test) == 5  # one terminal window per test unit

    def test_missing_input_exit_one(self, tmp_path):
        code = main(["prepare", "--dataset", "csv", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "x.mtsd")])
        assert code == 1


class TestTrainEval:
    def test_train_then_eval_consistency(self, tmp_path, toy_data, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out)]) == 0
        train_line = capsys.readouterr().out
        train_rmse = float(train_line.strip().split()[-1])
        metrics = json.loads((out / "metrics.json").read_text())
        assert abs(metrics[0]["rmse"] - train_rmse) < 1e-6
        assert (out / "resolved-config.json").exists()
        assert (out / "metrics.csv").exists()

        # eval on the validation carve-out reproduces the final train line
        sset = D.load_canonical(toy_data)
        _, valid = D.carve_validation(sset, 0.25, TINY["seed"])
        valid_path = tmp_path / "valid.mtsd"
        D.save_canonical(valid_path, valid)
        out2 = tmp_path / "eval"
        assert main(["eval", "--config", str(config_file), "--data", str(valid_path),
                     "--checkpoint", str(out / "checkpoint.hsmg"),
                     "--out", str(out2)]) == 0
        eval_metrics = json.loads((out2 / "metrics.json").read_text())
        assert abs(eval_metrics[0]["rmse"] - metrics[0]["rmse"]) < 1e-12

    def test_unknown_config_key_exit_two(self, tmp_path, toy_data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "bogus": 1}))
        assert main(["train", "--config", str(bad), "--data", str(toy_data),
                     "--out", str(tmp_path / "o")]) == 2

    def test_set_override(self, tmp_path, toy_data, config_file):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out), "--set", "epochs=1"]) == 0
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["train.epochs"] == 1


class TestMalformedInput:
    def test_truncated_data_exit_two(self, tmp_path, toy_data, config_file):
        cut = tmp_path / "cut.mtsd"
        cut.write_bytes(toy_data.read_bytes()[:20])
        assert main(["train", "--config", str(config_file), "--data", str(cut),
                     "--out", str(tmp_path / "o")]) == 2

    def test_truncated_checkpoint_exit_two(self, tmp_path, toy_data, config_file):
        run = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(run), "--set", "epochs=1"]) == 0
        cut = tmp_path / "cut.hsmg"
        cut.write_bytes((run / "checkpoint.hsmg").read_bytes()[:100])
        assert main(["eval", "--config", str(config_file), "--data", str(toy_data),
                     "--checkpoint", str(cut), "--out", str(tmp_path / "e")]) == 2


class TestAblateSweep:
    def test_ablate_trains_each_run_once(self, tmp_path, toy_data, config_file, monkeypatch):
        calls = []
        real_train = training.train

        def counting_train(model_cfg, train_cfg, *args):
            calls.append((model_cfg.variant, train_cfg.seed))
            return real_train(model_cfg, train_cfg, *args)

        monkeypatch.setattr(training, "train", counting_train)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out), "--seeds", "0,1", "--set", "epochs=1"]) == 0
        assert sorted(calls) == sorted((v, s) for v in VARIANTS for s in (0, 1))
        assert sorted(p.name for p in out.glob("*.hsmg")) == sorted(
            f"checkpoint-{v}-seed0.hsmg" for v in VARIANTS)

    def test_ablate_checkpoint_equals_train_checkpoint(self, tmp_path, toy_data, config_file):
        ablated = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(ablated), "--variant", "complete"]) == 0
        trained = tmp_path / "train"
        assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(trained)]) == 0
        assert ((ablated / "checkpoint-complete-seed0.hsmg").read_bytes()
                == (trained / "checkpoint.hsmg").read_bytes())

    def test_no_adb_checkpoint_lacks_bank_tensors(self, tmp_path, toy_data, config_file):
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out), "--variant", "no-adb"]) == 0
        state = load_checkpoint(out / "checkpoint-no-adb-seed0.hsmg")
        assert not any(k.startswith("adb.") for k in state)

    def test_delta_sweep_csv_rows(self, tmp_path, toy_data, config_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out), "--param", "delta",
                     "--values", "0.1,0.3,0.5,0.7,0.9", "--set", "epochs=1"]) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 grid points

    def test_invalid_sweep_value_exit_two(self, tmp_path, toy_data, config_file):
        assert main(["sweep", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(tmp_path / "s"), "--param", "delta",
                     "--values", "0.5,1.5"]) == 2

    def test_fusion_weight_pairs_cli(self, tmp_path, toy_data, config_file):
        out = tmp_path / "fw"
        assert main(["sweep", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out), "--param", "fusion_weights",
                     "--values", "0.2:0.8,0.5:0.5,0.8:0.2", "--set", "epochs=1"]) == 0
        rows = json.loads((out / "metrics.json").read_text())
        assert len(rows) == 3


def test_seed_env_fallback(tmp_path, toy_data, monkeypatch):
    monkeypatch.setenv("HSMGNN_SEED", "7")
    cfg = {k: v for k, v in TINY.items() if k != "seed"}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(toy_data),
                 "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["train.seed"] == 7
