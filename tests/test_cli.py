"""End-to-end tests of the command-line interface via main(argv)."""

import subprocess
import sys

import numpy as np
import pytest

from spnpb.cli import main
from spnpb.csvio import read_csv
from spnpb.dataset import load_trials, save_trials
from spnpb.model import load_model, save_model


def run(argv):
    return main(argv)


def test_pipeline_collect_train_analyze_adapt_control(tmp_path, capsys):
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    proj = tmp_path / "proj.csv"
    traj = tmp_path / "traj.csv"

    assert run(["collect", "--out", str(data), "--alphas", "0.5",
                "--betas", "0.2", "--trials-per-config", "2",
                "--steps", "30"]) == 0
    trials = load_trials(data)
    assert len(trials) == 2 and len(trials[0]) == 30

    assert run(["train", "--data", str(data), "--out", str(model),
                "--epochs", "2", "--log-every", "1"]) == 0
    params = load_model(model)
    assert params.pb_table.shape == (2, 2)

    assert run(["analyze-pb", "--model", str(model), "--out", str(proj)]) == 0
    name, _, rows = read_csv(proj, schema="pb_projection")
    assert len(rows) == 2

    assert run(["adapt", "--model", str(model), "--alpha", "0.5",
                "--beta", "0.2", "--ticks", "14", "--out", str(traj)]) == 0
    _, _, rows = read_csv(traj, schema="adaptation_trajectory")
    assert len(rows) == 14

    out_dir = tmp_path / "control"
    assert run(["control", "--model", str(model), "--alpha", "0.5",
                "--beta", "0.2", "--ticks", "2", "--out", str(out_dir)]) == 0
    read_csv(out_dir / "control_seed0.csv", schema="control_episode")
    captured = capsys.readouterr()
    assert "mean predicted sigma_trans" in captured.out


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 25\ntrials-per-config = 1\n# comment line\n")
    data = tmp_path / "a.csv"
    assert run(["collect", "--config", str(cfg), "--out", str(data),
                "--alphas", "0.5", "--betas", "0.2"]) == 0
    trials = load_trials(data)
    assert len(trials) == 1 and len(trials[0]) == 25

    data2 = tmp_path / "b.csv"
    assert run(["collect", "--config", str(cfg), "--out", str(data2),
                "--alphas", "0.5", "--betas", "0.2", "--steps", "40"]) == 0
    trials = load_trials(data2)
    assert len(trials[0]) == 40  # explicit flag beats the file


def test_explicit_flag_with_equals_beats_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 25\n")
    data = tmp_path / "a.csv"
    assert run(["collect", "--config", str(cfg), "--out", str(data),
                "--alphas", "0.5", "--betas", "0.2", "--trials-per-config", "1",
                "--steps=40"]) == 0
    trials = load_trials(data)
    assert len(trials[0]) == 40


def test_abbreviated_flag_beats_the_config_file(tmp_path):
    # argparse accepts --step for --steps, so the file must lose to it too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 25\n")
    data = tmp_path / "a.csv"
    assert run(["collect", "--config", str(cfg), "--out", str(data),
                "--alphas", "0.5", "--betas", "0.2", "--trials-per-config", "1",
                "--step", "40"]) == 0
    assert len(load_trials(data)[0]) == 40


def test_required_flag_can_come_from_the_config_file(tmp_path, capsys):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    assert run(["collect", "--out", str(data), "--alphas", "0.4,0.6",
                "--betas", "0.2", "--trials-per-config", "1", "--steps", "12"]) == 0
    assert run(["train", "--data", str(data), "--out", str(model), "--epochs", "1",
                "--log-every", "0"]) == 0
    cfg = tmp_path / "pb.cfg"
    cfg.write_text(f"model = {model}\n")
    out = tmp_path / "x.csv"
    assert run(["analyze-pb", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_csv(out, "pb_projection")[2]) == 2
    assert "wrote projection of 2 bias vectors" in capsys.readouterr().out


def test_bad_config_value_is_a_validation_failure(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = many\n")
    try:
        code = run(["collect", "--config", str(cfg), "--out", str(tmp_path / "a.csv")])
    except SystemExit as exc:  # argparse reports its own type errors
        code = exc.code
    assert code == 2


def test_unknown_config_key_is_a_validation_failure(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not-a-flag = 7\n")
    data = tmp_path / "x.csv"
    assert run(["collect", "--config", str(cfg), "--out", str(data)]) == 2


def test_invalid_hyperparameters_exit_2(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["collect", "--out", str(data), "--alphas", "0.5",
                "--betas", "0.2", "--trials-per-config", "1",
                "--steps", "10"]) == 0
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                "--epochs", "0"]) == 2
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                "--epochs", "1", "--lr-decay", "0"]) == 2


@pytest.mark.parametrize("flags", [
    ["--grad-clip", "nan"],      # used to exit 0 with clipping silently off
    ["--lr-weights", "nan"],     # used to run an epoch, then exit 3
    ["--lr-pb", "inf"],
], ids=["grad-clip-nan", "lr-weights-nan", "lr-pb-inf"])
def test_non_finite_training_settings_exit_2(tmp_path, flags, capsys):
    data = tmp_path / "d.csv"
    assert run(["collect", "--out", str(data), "--alphas", "0.5",
                "--betas", "0.2", "--trials-per-config", "1",
                "--steps", "10"]) == 0
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(data), "--out", str(model),
                "--epochs", "1", "--log-every", "0", *flags]) == 2
    assert "must be finite and positive" in capsys.readouterr().err
    assert not model.exists()


def test_training_divergence_exits_3(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["collect", "--out", str(data), "--alphas", "0.5",
                "--betas", "0.2", "--trials-per-config", "1",
                "--steps", "12"]) == 0
    with np.errstate(all="ignore"):
        code = run(["train", "--data", str(data),
                    "--out", str(tmp_path / "m.json"),
                    "--epochs", "3", "--lr-weights", "1e160",
                    "--log-every", "0"])
    assert code == 3


def test_non_finite_adaptation_gradient_exits_3(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    run(["collect", "--out", str(data), "--alphas", "0.5", "--betas", "0.2",
         "--trials-per-config", "1", "--steps", "12"])
    run(["train", "--data", str(data), "--out", str(model), "--epochs", "1",
         "--log-every", "0"])
    params = load_model(model)
    params.dense_in[0].W[0, 0] = np.nan
    save_model(params, model)
    with np.errstate(all="ignore"):
        code = run(["adapt", "--model", str(model), "--alpha", "0.5",
                    "--beta", "0.2", "--ticks", "14"])
    assert code == 3


def test_missing_files_exit_2(tmp_path):
    assert run(["train", "--data", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "m.json"), "--epochs", "1"]) == 2
    assert run(["adapt", "--model", str(tmp_path / "nope.json"),
                "--alpha", "0.5", "--beta", "0.2"]) == 2


def test_control_without_matching_bias_requires_adapt_flag(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    run(["collect", "--out", str(data), "--alphas", "0.5", "--betas", "0.2",
         "--trials-per-config", "1", "--steps", "12"])
    run(["train", "--data", str(data), "--out", str(model), "--epochs", "1",
         "--log-every", "0"])
    assert run(["control", "--model", str(model), "--alpha", "0.9",
                "--beta", "0.9", "--ticks", "1"]) == 2
    # a store_true flag takes true/false words from a config file
    cfg = tmp_path / "adapt.cfg"
    cfg.write_text("adapt = yes\n")
    assert run(["control", "--config", str(cfg), "--model", str(model),
                "--alpha", "0.9", "--beta", "0.9", "--ticks", "1"]) == 0
    cfg.write_text("adapt = false\n")
    assert run(["control", "--config", str(cfg), "--model", str(model),
                "--alpha", "0.9", "--beta", "0.9", "--ticks", "1"]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "spnpb", "--version"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip()


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A one-epoch model trained on one environment, for flag-validation tests."""
    root = tmp_path_factory.mktemp("tiny")
    data, model = root / "d.csv", root / "m.json"
    assert run(["collect", "--out", str(data), "--alphas", "0.5", "--betas", "1.0",
                "--trials-per-config", "1", "--steps", "12"]) == 0
    assert run(["train", "--data", str(data), "--out", str(model), "--epochs", "1",
                "--log-every", "0"]) == 0
    return str(model)


@pytest.mark.parametrize("flags", [
    ["--c-variance", "nan"],     # every tick used to end in a safe stop, exit 0
    ["--c-variance", "-30"],     # used to maximise the variance, exit 0
    ["--c-orig", "inf"],
], ids=["c-variance-nan", "c-variance-negative", "c-orig-inf"])
def test_control_rejects_meaningless_loss_weights(tiny_model, flags, capsys):
    assert run(["control", "--model", tiny_model, "--ticks", "2", *flags]) == 2
    assert "must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["control", "--seeds", "0"],
    ["control", "--ticks", "0"],
    ["control", "--ticks", "-3"],
    ["adapt", "--alpha", "0.5", "--beta", "1.0", "--ticks", "-1"],
    ["adapt", "--alpha", "0.5", "--beta", "1.0", "--lr", "-1"],
], ids=["control-no-seeds", "control-zero-ticks", "control-negative-ticks",
        "adapt-negative-ticks", "adapt-negative-lr"])
def test_empty_or_backward_runs_exit_2(tiny_model, argv, capsys):
    # these used to exit 0 after printing nan, or after gradient ascent
    assert run([argv[0], "--model", tiny_model, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "nan" not in captured.out


@pytest.mark.parametrize("flags", [
    ["--steps", "0"],
    ["--steps", "1"],
    ["--trials-per-config", "0"],
    ["--alphas", ""],
    ["--betas", ","],
], ids=["zero-steps", "one-step", "no-trials", "no-alphas", "no-betas"])
def test_collect_rejects_degenerate_datasets(tmp_path, flags, capsys):
    # these used to write an untrainable dataset and exit 0
    out = tmp_path / "data.json"
    assert run(["collect", "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_train_on_empty_dataset_exits_2(tmp_path, capsys):
    # this used to end in an IndexError traceback, exit 1
    data = tmp_path / "empty.json"
    save_trials([], data)
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert "holds no trials" in capsys.readouterr().err
