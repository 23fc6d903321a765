import json

import numpy as np
import pytest

from hsmgnn import HSMGNN, VARIANTS, training
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
        # numpy's advice on `usecols` names no setting of hsmgnn, so the message ends here
        assert capsys.readouterr().err.rstrip().endswith("changed from 3 to 2 at row 17")

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

    def test_cmapss_prepare_parses_each_file_once(self, tmp_path, monkeypatch, capsys):
        from test_data import write_turbofan_files

        write_turbofan_files(tmp_path)
        read = D._read_table
        names = []

        def counted(path, *args, **kwargs):
            names.append(path.name)
            return read(path, *args, **kwargs)

        monkeypatch.setattr(D, "_read_table", counted)
        out = tmp_path / "fd001.mtsd"
        assert main(["prepare", "--dataset", "cmapss", "--input", str(tmp_path),
                     "--output", str(out), "--window", "8"]) == 0
        assert sorted(names) == ["RUL_FD001.txt", "test_FD001.txt", "train_FD001.txt"]
        for split, path in (("train", out), ("test", tmp_path / "fd001_test.mtsd")):
            expected = D.load_cmapss(tmp_path, "FD001", window=8, split=split)
            assert np.array_equal(D.load_canonical(path).windows, expected.windows)

    def test_prepared_turbofan_carves_validation_by_unit(self, tmp_path, capsys):
        from test_data import write_turbofan_files

        write_turbofan_files(tmp_path, n_units=10)
        out = tmp_path / "fd001.mtsd"
        assert main(["prepare", "--dataset", "cmapss", "--input", str(tmp_path),
                     "--output", str(out), "--window", "8"]) == 0
        loaded = D.load_canonical(out)
        assert np.array_equal(loaded.unit_ids,
                              D.load_cmapss(tmp_path, "FD001", window=8).unit_ids)
        train, valid = D.carve_validation(loaded, 0.2, seed=0)
        assert len(np.unique(valid.unit_ids)) == 2
        assert not set(valid.unit_ids) & set(train.unit_ids)

    def test_failing_test_split_writes_no_split(self, tmp_path, capsys):
        from test_data import write_turbofan_files

        write_turbofan_files(tmp_path)
        argv = ["prepare", "--dataset", "cmapss", "--input", str(tmp_path),
                "--output", str(tmp_path / "fd001.mtsd"), "--window", "8"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("N=20 T=8 C=1") == 2  # both splits' shapes
        for split in ("fd001.mtsd", "fd001_test.mtsd"):
            (tmp_path / split).unlink()
        (tmp_path / "RUL_FD001.txt").write_text("1\n")  # fewer values than test units
        assert main(argv) == 2
        assert not list(tmp_path.glob("*.mtsd"))

    def test_missing_input_exit_one(self, tmp_path):
        code = main(["prepare", "--dataset", "csv", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "x.mtsd")])
        assert code == 1

    def test_classification_round_trip(self, tmp_path, config_file, capsys):
        rng = np.random.default_rng(3)
        classes = np.array(["hi", "lo", "mid"])[rng.permutation(np.arange(16) % 3)]
        rows = ["a,b,c,label"] + [f"{rng.normal()},{rng.normal()},{rng.normal()},{label}"
                                  for label in classes.repeat(8)]  # one label per window
        src, data = tmp_path / "cls.csv", tmp_path / "cls.mtsd"
        src.write_text("\n".join(rows) + "\n")
        assert main(["prepare", "--dataset", "csv", "--input", str(src), "--output", str(data),
                     "--window", "8"]) == 0
        assert "task=classification" in capsys.readouterr().out
        run = ["--config", str(config_file), "--data", str(data)]
        assert main(["train", *run, "--out", str(tmp_path / "t")]) == 0
        assert capsys.readouterr().out.startswith("final validation Accu: ")
        resolved = json.loads((tmp_path / "t" / "resolved-config.json").read_text())
        assert resolved["n_classes"] == 3
        assert main(["eval", *run, "--checkpoint", str(tmp_path / "t" / "checkpoint.hsmg"),
                     "--out", str(tmp_path / "e")]) == 0
        assert capsys.readouterr().out.startswith("eval Accu: ")


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

    def test_eval_takes_the_class_count_from_the_checkpoint(self, tmp_path, config_file,
                                                             capsys):
        # a 3-class checkpoint scores a container whose labels hold only classes 0 and 1
        x = np.random.default_rng(2).normal(size=(12, 3, 8, 1))
        train_path, test_path = tmp_path / "train.mtsd", tmp_path / "test.mtsd"
        D.save_canonical(train_path, D.SampleSet(x, np.arange(12) % 3, "classification"))
        D.save_canonical(test_path, D.SampleSet(x[:6], np.arange(6) % 2, "classification"))
        run = ["--config", str(config_file), "--set", "epochs=1"]
        assert main(["train", *run, "--data", str(train_path), "--out", str(tmp_path / "t")]) == 0
        evaluate = ["eval", *run, "--data", str(test_path),
                    "--checkpoint", str(tmp_path / "t" / "checkpoint.hsmg")]
        assert main([*evaluate, "--out", str(tmp_path / "e")]) == 0
        resolved = json.loads((tmp_path / "e" / "resolved-config.json").read_text())
        assert resolved["n_classes"] == 3
        capsys.readouterr()
        assert main([*evaluate, "--set", "n_classes=2", "--out", str(tmp_path / "f")]) == 2
        assert "'mlp.b4' has shape (3,), expected (2,)" in capsys.readouterr().err

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

    def test_every_command_records_valid_frac(self, tmp_path, toy_data, config_file):
        run = ["--config", str(config_file), "--data", str(toy_data), "--set", "epochs=1",
               "--set", "valid_frac=0.3"]
        checkpoint = str(tmp_path / "train" / "checkpoint.hsmg")
        for command, *extra in (["train"], ["eval", "--checkpoint", checkpoint],
                                ["ablate", "--variant", "complete"],
                                ["sweep", "--param", "m_d", "--values", "3"]):
            out = tmp_path / command
            assert main([command, *run, "--out", str(out), *extra]) == 0
            resolved = json.loads((out / "resolved-config.json").read_text())
            assert resolved["train.valid_frac"] == 0.3
            assert "valid_frac" not in resolved and "head" not in resolved

    def test_missing_config_file_is_an_io_error(self, tmp_path, toy_data, capsys):
        config = tmp_path / "nope.json"
        assert main(["train", "--config", str(config), "--data", str(toy_data),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"I/O error: [Errno 2] No such file or directory: '{config}'\n")

    def test_config_too_large_for_memory_exit_two(self, tmp_path, toy_data, config_file,
                                                  monkeypatch, capsys):
        def refuse(self, name, shape, fan_in, rng):  # no real 4.66 TiB request
            raise MemoryError(f"Unable to allocate 4.66 TiB for an array with shape {shape}")

        monkeypatch.setattr(HSMGNN, "_param", refuse)
        assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(tmp_path / "o"), "--set", "m_q=100000"]) == 2
        assert capsys.readouterr().err == (
            "error: Unable to allocate 4.66 TiB for an array with shape (2, 2, 3)\n")


class TestMalformedInput:
    @pytest.mark.parametrize("text", ["5", "[[1]]"])
    def test_config_that_is_not_an_object_exit_two(self, tmp_path, toy_data, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["train", "--config", str(bad), "--data", str(toy_data),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: expected a JSON object, got {text}\n"

    def test_config_that_is_not_utf8_exit_two(self, tmp_path, toy_data, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["train", "--config", str(bad), "--data", str(toy_data),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON (")

    def test_eps_spd_whose_ridge_overflows_exit_two(self, tmp_path, toy_data, config_file,
                                                    capsys):
        assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(tmp_path / "o"), "--set", "eps_spd=1e300"]) == 2
        err = capsys.readouterr().err
        assert "eps_spd must be below" in err and "Traceback" not in err

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


def test_eval_on_an_empty_container_exits_two(tmp_path, toy_data, config_file, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                 "--out", str(run), "--set", "epochs=1"]) == 0
    empty = tmp_path / "empty.mtsd"
    D.save_canonical(empty, D.SampleSet(np.zeros((0, 3, 8, 1)), np.zeros(0), "regression"))
    capsys.readouterr()
    assert main(["eval", "--config", str(config_file), "--data", str(empty),
                 "--checkpoint", str(run / "checkpoint.hsmg"), "--out", str(tmp_path / "e")]) == 2
    assert "empty" in capsys.readouterr().err


def test_eval_rejects_an_out_of_range_valid_frac_before_any_output(
        tmp_path, toy_data, config_file, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(config_file), "--data", str(toy_data),
                 "--out", str(run), "--set", "epochs=1"]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(config_file), "--data", str(toy_data),
                 "--set", "valid_frac=2", "--checkpoint", str(run / "checkpoint.hsmg"),
                 "--out", str(tmp_path / "e")]) == 2
    assert "valid_frac" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_nan_rul_cap_is_named(tmp_path, capsys):
    argv = _turbofan(extra=("--rul-cap", "nan"))(tmp_path, [])
    assert main(argv) == 2
    assert "rul_cap" in capsys.readouterr().err


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

    def test_repeated_seed_shares_one_run(self, tmp_path, toy_data, config_file, monkeypatch):
        calls = []
        real_train = training.train
        monkeypatch.setattr(training, "train", lambda *a: calls.append(a) or real_train(*a))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out), "--seeds", "0,0", "--variant", "complete",
                     "--set", "epochs=1"]) == 0
        rows = json.loads((out / "metrics.json").read_text())
        assert len(calls) == 1
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_without_test_data_each_run_is_evaluated_once_per_epoch(
            self, tmp_path, toy_data, config_file, monkeypatch):
        calls = []
        real_evaluate = training.evaluate
        monkeypatch.setattr(training, "evaluate",
                            lambda *args: calls.append(1) or real_evaluate(*args))
        run = ["--config", str(config_file), "--data", str(toy_data), "--set", "epochs=1"]
        assert main(["ablate", *run, "--out", str(tmp_path / "a"), "--seeds", "0,1"]) == 0
        rows = json.loads((tmp_path / "a" / "metrics.json").read_text())
        assert len(calls) == len(rows) == 2 * len(VARIANTS)  # the validation of each epoch
        assert all(len(r["loss_curve"]) == 1 and r["wall_clock"] > 0 for r in rows)
        calls.clear()
        assert main(["sweep", *run, "--out", str(tmp_path / "s"), "--param", "m_d",
                     "--values", "2,3"]) == 0
        assert len(calls) == 2
        assert main(["train", *run, "--out", str(tmp_path / "t")]) == 0
        trained = json.loads((tmp_path / "t" / "metrics.json").read_text())[0]
        assert rows[0]["rmse"] == trained["rmse"]  # complete, seed 0

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

    def test_test_data_only_on_ablate_and_sweep(self, tmp_path, toy_data, config_file):
        rng = np.random.default_rng(2)
        test_path = tmp_path / "test.mtsd"
        D.save_canonical(test_path, D.SampleSet(rng.normal(size=(5, 3, 8, 1)),
                                                rng.normal(size=5), "regression"))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_file), "--data", str(toy_data),
                     "--out", str(out), "--variant", "complete", "--set", "epochs=1",
                     "--test-data", str(test_path)]) == 0
        ev = tmp_path / "eval"
        checkpoint = out / "checkpoint-complete-seed0.hsmg"
        assert main(["eval", "--config", str(config_file), "--data", str(test_path),
                     "--checkpoint", str(checkpoint), "--out", str(ev)]) == 0
        row = json.loads((out / "metrics.json").read_text())[0]
        assert row["rmse"] == json.loads((ev / "metrics.json").read_text())[0]["rmse"]
        for argv in (["train"], ["eval", "--checkpoint", str(checkpoint)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--data", str(toy_data), "--out", str(tmp_path / "x"),
                             "--test-data", str(test_path)])
            assert exc.value.code == 2


def _run(command, *extra):
    return lambda tmp, run: [command, *run, *extra]


def _classes(labels, *extra):
    """`train` on a container of the task classification, one sample per label; the labels
    are written past `SampleSet`, which rejects the ones that are not class indices."""
    def argv(tmp, run):
        path = tmp / "classes.mtsd"
        x = np.random.default_rng(0).normal(size=(len(labels), 3, 8, 1))
        D.save_canonical(path, D.SampleSet(x, labels, "regression"))
        raw = bytearray(path.read_bytes())
        raw[D.HEADER.size - 1] = D.TASK_CODES["classification"]
        path.write_bytes(raw)
        return ["train", *run, "--data", str(path), *extra]
    return argv


def _turbofan(window="8", name=None, edit=None, extra=()):
    """`prepare` of synthetic turbofan files, the text of file `name` passed through `edit`."""
    def argv(tmp, run):
        from test_data import write_turbofan_files

        write_turbofan_files(tmp)
        if name:
            (tmp / name).write_text(edit((tmp / name).read_text()))
        return ["prepare", "--dataset", "cmapss", "--input", str(tmp),
                "--output", str(tmp / "x.mtsd"), "--window", window, *extra]
    return argv


def _csv(text, window):
    def argv(tmp, run):
        (tmp / "in.csv").write_text(text)
        return ["prepare", "--dataset", "csv", "--input", str(tmp / "in.csv"),
                "--output", str(tmp / "x.mtsd"), "--window", window]
    return argv


def _bad_token(text):
    return text.replace("42.0", "4x.0", 1)


def _drop_last_line(text):
    return "".join(text.splitlines(True)[:-1])


def _cell(row, column, token, blank_lines=0):
    """An edit putting `token` in a cell of a whitespace table (both counted from 1), after
    `blank_lines` new blank lines at the top."""
    def edit(text):
        lines = text.splitlines(True)
        fields = lines[row - 1].split()
        fields[column - 1] = token
        lines[row - 1] = " ".join(fields) + "\n"
        return "\n" * blank_lines + "".join(lines)
    return edit


MALFORMED = [
    pytest.param(_run("train", "--set", "w_p=abc"), id="set-w_p-abc"),
    pytest.param(_run("train", "--set", "mlp_widths=5"), id="set-mlp_widths-5"),
    pytest.param(_run("train", "--set", "batch_size=abc"), id="set-batch_size-abc"),
    pytest.param(_run("train", "--set", "lr=abc"), id="set-lr-abc"),
    pytest.param(_run("train", "--set", "max_steps=abc"), id="set-max_steps-abc"),
    pytest.param(_run("train", "--set", "epochs=1.5"), id="set-epochs-1.5"),
    pytest.param(_run("train", "--set", "m_q=0"), id="set-m_q-0"),
    pytest.param(_run("train", "--set", "f_s=0"), id="set-f_s-0"),
    pytest.param(_run("train", "--set", "eps_spd=0"), id="set-eps_spd-0"),
    pytest.param(_run("train", "--set", "valid_frac=abc"), id="set-valid_frac-abc"),
    pytest.param(_run("train", "--set", "head=classification"), id="set-head"),
    pytest.param(_run("train", "--set", "n_classes=3"), id="regression-n_classes-3"),
    pytest.param(_classes(np.arange(12) % 3, "--set", "n_classes=2"), id="3-classes-n_classes-2"),
    pytest.param(_classes(np.arange(12) % 3, "--set", "n_classes=1"), id="3-classes-n_classes-1"),
    pytest.param(_classes(np.zeros(12)), id="1-class"),
    pytest.param(_classes(np.r_[np.arange(11) % 3, -1]), id="label-negative"),
    pytest.param(_classes(np.r_[np.arange(11) % 3, 0.5]), id="label-fraction"),
    pytest.param(_run("sweep", "--param", "delta", "--values", "abc"), id="sweep-delta-abc"),
    pytest.param(_run("sweep", "--param", "m_d", "--values", "1.5"), id="sweep-m_d-1.5"),
    pytest.param(_run("sweep", "--param", "fusion_weights", "--values", "0.5"),
                 id="sweep-fusion_weights-0.5"),
    pytest.param(_turbofan(name="train_FD001.txt", edit=_bad_token), id="cmapss-train-token"),
    pytest.param(_turbofan(name="test_FD001.txt", edit=_bad_token), id="cmapss-test-token"),
    pytest.param(_turbofan(name="RUL_FD001.txt", edit=lambda s: s.replace(".0", ".x", 1)),
                 id="cmapss-rul-token"),
    pytest.param(_turbofan(name="RUL_FD001.txt", edit=_drop_last_line), id="cmapss-rul-short"),
    pytest.param(_turbofan(name="RUL_FD001.txt", edit=lambda s: s + "7.0\n"),
                 id="cmapss-rul-long"),
    pytest.param(_turbofan(window="-1"), id="cmapss-window-negative"),
    pytest.param(_turbofan(window="0"), id="cmapss-window-0"),
    pytest.param(_turbofan(window="100"), id="cmapss-window-too-long"),
    pytest.param(_turbofan(extra=("--rul-cap", "-5")), id="cmapss-rul-cap-negative"),
    pytest.param(_turbofan(name="train_FD001.txt", edit=lambda s: ""), id="cmapss-train-empty"),
    pytest.param(_turbofan(name="train_FD001.txt", edit=lambda s: "\n  \n\t\n"),
                 id="cmapss-train-blank"),
    pytest.param(_run("ablate", "--seeds", "abc"), id="ablate-seeds-abc"),
    pytest.param(_run("ablate", "--seeds", "0,,1"), id="ablate-seeds-empty-item"),
    pytest.param(_csv("a,label\n1,0\n2,1\n", "0"), id="csv-window-0"),
    pytest.param(_csv("a,label\n", "1"), id="csv-header-only"),
    pytest.param(_csv("a,label\n1,0\ninf,1\n", "1"), id="csv-inf-token"),
    pytest.param(_turbofan(name="train_FD001.txt", edit=_cell(7, 7, "inf")),
                 id="cmapss-train-inf"),
    pytest.param(_turbofan(name="test_FD001.txt", edit=_cell(2, 26, "nan")), id="cmapss-test-nan"),
    pytest.param(_turbofan(name="RUL_FD001.txt", edit=_cell(3, 1, "1e400")),
                 id="cmapss-rul-overflow"),
    pytest.param(_csv("a,label\n1,0\n2,nan\n", "1"), id="csv-nan-label"),
]


@pytest.mark.parametrize("make_argv", MALFORMED)
def test_malformed_input_exits_two(make_argv, tmp_path, toy_data, config_file, capsys):
    run = ["--config", str(config_file), "--data", str(toy_data), "--out", str(tmp_path / "o")]
    assert main(make_argv(tmp_path, run)) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


# rows count from 1, blank lines not counted; columns count from 1
@pytest.mark.parametrize("make_argv,message", [
    pytest.param(_turbofan(name="train_FD001.txt", edit=_cell(7, 7, "inf")),
                 "train_FD001.txt: non-finite value inf at row 7, column 7", id="cmapss-inf"),
    pytest.param(_turbofan(name="train_FD001.txt", edit=_bad_token),
                 "train_FD001.txt: could not convert string '4x.000000' to float64 "
                 "at row 1, column 15", id="cmapss-token-first-line"),
    pytest.param(_turbofan(name="train_FD001.txt", edit=_cell(2, 3, "4x", blank_lines=2)),
                 "train_FD001.txt: could not convert string '4x' to float64 at row 2, column 3",
                 id="cmapss-token-after-blank-lines"),
    pytest.param(_turbofan(name="test_FD001.txt", edit=_cell(2, 26, "nan", blank_lines=1)),
                 "test_FD001.txt: non-finite value nan at row 2, column 26", id="cmapss-test-nan"),
    pytest.param(_turbofan(name="RUL_FD001.txt", edit=_cell(3, 1, "1e400")),
                 "RUL_FD001.txt: non-finite value inf at row 3, column 1",
                 id="cmapss-rul-overflow"),
    pytest.param(_csv("a,label\n1,0\ninf,1\n", "1"),
                 "in.csv: non-finite value inf at row 3, column 1", id="csv-inf"),
    pytest.param(_csv("a,b,label\n\n1,2,0\n\n3,4,-inf\n", "1"),
                 "in.csv: non-finite value -inf at row 3, column 3",
                 id="csv-label-after-blank-lines"),
])
def test_malformed_value_names_its_row_and_column(make_argv, message, tmp_path, capsys):
    assert main(make_argv(tmp_path, [])) == 2
    assert message in capsys.readouterr().err


def test_ablate_bad_seed_creates_no_output_directory(tmp_path, toy_data, config_file):
    out = tmp_path / "runs" / "a"
    assert main(["ablate", "--config", str(config_file), "--data", str(toy_data),
                 "--out", str(out), "--seeds", "abc"]) == 2
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("param,values,labels", [
    ("delta", "0.1,0.3", [0.1, 0.3]),  # with w_p = 4 both give z_s = 1
    ("m_d", "8,8", [8, 8]),
], ids=["delta", "m_d"])
def test_sweep_trains_each_distinct_model_once(param, values, labels, tmp_path, toy_data,
                                               config_file, monkeypatch):
    calls = []
    real_train = training.train
    monkeypatch.setattr(training, "train", lambda *a: calls.append(a) or real_train(*a))
    assert main(["sweep", "--config", str(config_file), "--data", str(toy_data),
                 "--set", "epochs=1", "--out", str(tmp_path / "s"), "--param", param,
                 "--values", values]) == 0
    rows = json.loads((tmp_path / "s" / "metrics.json").read_text())
    assert len(calls) == 1
    assert [r["value"] for r in rows] == labels
    assert rows[0]["rmse"] == rows[1]["rmse"]


@pytest.mark.parametrize("param,values,labels,overrides", [
    ("delta", ".5,1e-1", [0.5, 0.1], [["delta=0.5"], ["delta=0.1"]]),
    ("fusion_weights", "1:0", ["1.0,0.0"], [["w_s=1.0", "w_e=0.0"]]),
])
def test_sweep_values_parse_like_set(param, values, labels, overrides, tmp_path, toy_data,
                                     config_file):
    run = ["--config", str(config_file), "--data", str(toy_data), "--set", "epochs=1"]
    assert main(["sweep", *run, "--out", str(tmp_path / "s"), "--param", param,
                 "--values", values]) == 0
    rows = json.loads((tmp_path / "s" / "metrics.json").read_text())
    assert [r["value"] for r in rows] == labels
    for row, sets in zip(rows, overrides):
        out = tmp_path / "t"
        assert main(["train", *run, "--out", str(out),
                     *(arg for s in sets for arg in ("--set", s))]) == 0
        assert row["rmse"] == json.loads((out / "metrics.json").read_text())[0]["rmse"]


def test_diverging_run_aborts_with_one_line_and_no_warning(tmp_path, capsys):
    """Under the suite's error::RuntimeWarning filter: the forward of a model that an lr of
    1e300 has blown up overflows in its products, and the run still ends in exit 3 with the
    one abort line, with numpy's error state restored."""
    rng = np.random.default_rng(0)
    rows = ["s1,s2,s3,label"] + [",".join(map(str, rng.normal(size=4))) for _ in range(60)]
    (tmp_path / "in.csv").write_text("\n".join(rows) + "\n")
    data = tmp_path / "x.mtsd"
    assert main(["prepare", "--dataset", "csv", "--input", str(tmp_path / "in.csv"),
                 "--output", str(data), "--window", "12", "--task", "regression"]) == 0
    capsys.readouterr()
    state = np.geterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"), "--set", "w_p=4",
                 "--set", "epochs=1", "--set", "lr=1e300"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical abort: non-finite validation score at epoch 0"]
    assert np.geterr() == state
