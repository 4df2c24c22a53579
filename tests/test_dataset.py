import numpy as np
import pytest

from spnpb.dataset import (
    Trial,
    fmt,
    load_trials,
    manifest_path_for,
    parse_env_label,
    save_trials,
)


def make_trial(trial_id, label, n=5, seed=0):
    rng = np.random.default_rng(seed)
    states, commands = zip(*[(rng.normal(size=2), rng.normal(size=2)) for _ in range(n)])
    return Trial(trial_id, label, states=states, commands=commands, ticks=range(n))


def test_fmt_round_trips_awkward_floats():
    for x in (0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.pi):
        assert float(fmt(x)) == x


def test_save_load_round_trip_is_exact(tmp_path):
    trials = [make_trial(0, "alpha=0.4,beta=1.0", seed=1),
              make_trial(7, "alpha=0.6,beta=0.1", seed=2)]
    path = tmp_path / "data.csv"
    save_trials(trials, str(path))
    loaded = load_trials(str(path))

    assert [t.trial_id for t in loaded] == [0, 7]
    assert [t.label for t in loaded] == ["alpha=0.4,beta=1.0", "alpha=0.6,beta=0.1"]
    for orig, back in zip(trials, loaded):
        assert np.array_equal(orig.states, back.states)
        assert np.array_equal(orig.commands, back.commands)
        assert np.array_equal(orig.ticks, back.ticks)


def test_save_is_byte_deterministic(tmp_path):
    trials = [make_trial(0, "x", seed=3)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trials(trials, str(p1))
    save_trials(trials, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_text() == (
        tmp_path / "b.csv.manifest.json"
    ).read_text()


def test_labels_with_commas_survive_the_manifest(tmp_path):
    path = tmp_path / "d.csv"
    save_trials([make_trial(3, "alpha=0.5,beta=1.0")], str(path))
    assert manifest_path_for(str(path)) == str(path) + ".manifest.json"
    loaded = load_trials(str(path))
    assert loaded[0].label == "alpha=0.5,beta=1.0"


def test_missing_manifest_leaves_labels_empty(tmp_path):
    path = tmp_path / "d.csv"
    save_trials([make_trial(1, "whatever")], str(path))
    (tmp_path / "d.csv.manifest.json").unlink()
    loaded = load_trials(str(path))
    assert loaded[0].label == ""


def test_trial_rejects_nonmonotone_ticks():
    with pytest.raises(ValueError):
        Trial(0, "", states=np.zeros((2, 2)), commands=np.zeros((2, 2)), ticks=[0, 0])


def test_trial_arrays_are_read_only():
    trial = make_trial(0, "x")
    for column in (trial.states, trial.commands, trial.ticks):
        with pytest.raises(ValueError):
            column[0] = 1
    assert trial.ticks.tolist() == list(range(5))


def test_trial_keeps_its_own_copy_of_the_arrays():
    states = np.zeros((3, 2))
    trial = Trial(0, "", states=states, commands=np.zeros((3, 2)), ticks=[0, 1, 2])
    states[0, 0] = 5.0
    assert trial.states[0, 0] == 0.0
    assert states.flags.writeable


def columns(n=4, **override):
    rng = np.random.default_rng(1)
    arrays = dict(states=rng.normal(size=(n, 2)), commands=rng.normal(size=(n, 2)),
                  ticks=np.arange(n))
    arrays.update(override)
    return arrays


@pytest.mark.parametrize("bad", [
    columns(states=np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]])),
    columns(commands=np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -np.inf], [0.0, 0.0]])),
    columns(states=np.zeros((3, 2))),       # one state short
    columns(ticks=np.arange(5)),            # one tick too many
    columns(commands=np.zeros(4)),          # commands without a width
    columns(ticks=[0, 1, 1, 2]),            # a repeated tick
    columns(ticks=[0, 2, 1, 3]),            # a tick going back
    columns(states=[np.zeros(2), np.zeros(3)] * 2),  # rows of unequal width
], ids=["nan-state", "inf-command", "short-states", "long-ticks", "flat-commands",
        "repeated-tick", "decreasing-tick", "ragged-states"])
def test_columnar_trial_rejects(bad):
    with pytest.raises(ValueError):
        Trial(0, "", **bad)


def test_load_names_the_line_of_a_non_finite_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1.0,2.0,3.0,4.0\n0,1,1.0,nan,3.0,4.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2\b"):
        load_trials(str(path))


def test_load_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        load_trials(str(path))


def test_parse_env_label():
    assert parse_env_label("alpha=0.4,beta=1.0") == (0.4, 1.0)
    assert parse_env_label("beta=0.1,alpha=0.6") == (0.6, 0.1)
    with pytest.raises(ValueError):
        parse_env_label("nothing useful")
