"""Trial containers and the line-oriented dataset format.

A dataset file holds one sample per line:

    trial_id,tick,s_0,...,s_{n_s-1},u_0,...,u_{n_u-1}

Floats are written with 17 significant digits so a round trip reproduces
every 64-bit value exactly.  Environment labels live in a JSON sidecar
manifest mapping trial id to label, since labels themselves may contain
commas.

In memory a Trial is column-wise: its states, commands and ticks are
read-only arrays, built once and shared by every reader.  A run of ticks
has no other in-memory form.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def fmt(x):
    """Serialize a float with 17 significant digits (exact round trip)."""
    return format(float(x), ".17g")


class Trial:
    """One recorded run in a single environment, stored column-wise.

    states (T, n_s), commands (T, n_u) and ticks (T,) are built once, at
    construction, from copies of what the caller passed, and are read-only:
    every reader shares them.  Non-finite values, rows of unequal count or
    width and ticks that do not strictly increase raise ValueError.
    """

    def __init__(self, trial_id, label, states, commands, ticks):
        self.trial_id = trial_id
        self.label = label
        self.states = self._column(states, 2, "states")
        self.commands = self._column(commands, 2, "commands")
        self.ticks = self._column(ticks, 1, "ticks", dtype=np.int64)
        if not len(self.states) == len(self.commands) == len(self.ticks):
            raise ValueError(
                f"trial {trial_id}: {len(self.states)} states, {len(self.commands)} "
                f"commands and {len(self.ticks)} ticks")
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.commands))):
            raise ValueError(f"trial {trial_id} contains non-finite values")
        if np.any(np.diff(self.ticks) <= 0):
            raise ValueError(f"trial {trial_id}: ticks must be strictly increasing")

    def _column(self, values, ndim, name, dtype=np.float64):
        """A read-only copy of values with ndim dimensions (an empty one is (0,) * ndim)."""
        try:
            column = np.array(values, dtype=dtype)
        except ValueError as err:  # rows of unequal width
            raise ValueError(f"trial {self.trial_id}: {name}: {err}") from None
        if column.size == 0 and column.ndim < ndim:
            column = column.reshape((0,) * ndim)
        if column.ndim != ndim:
            raise ValueError(f"trial {self.trial_id}: {name} must have {ndim} dimensions, "
                             f"got shape {column.shape}")
        column.flags.writeable = False
        return column

    def __len__(self):
        return len(self.ticks)


def manifest_path_for(data_path):
    return str(data_path) + ".manifest.json"


def save_trials(trials, data_path, manifest_path=None):
    """Write the dataset file and its label manifest."""
    if manifest_path is None:
        manifest_path = manifest_path_for(data_path)
    with open(data_path, "w") as fh:
        for trial in trials:
            rows = zip(trial.ticks.tolist(), trial.states.tolist(), trial.commands.tolist())
            for tick, s, u in rows:
                fields = [str(trial.trial_id), str(tick), *map(fmt, s), *map(fmt, u)]
                fh.write(",".join(fields) + "\n")
    labels = {str(t.trial_id): t.label for t in trials}
    with open(manifest_path, "w") as fh:
        json.dump({"format_version": 1, "labels": labels}, fh, indent=0, sort_keys=True)
        fh.write("\n")


def load_trials(data_path, manifest_path=None, n_s=2, n_u=2):
    """Read a dataset file back into Trial objects, labels attached.

    A line of the wrong field count, a field that does not parse or a
    non-finite value raises ValueError naming the file and line.  The
    manifest, if there is one, must be a JSON object whose labels (if
    given) is an object of strings; otherwise ValueError names it.
    """
    if manifest_path is None:
        manifest_path = manifest_path_for(data_path)
    labels = {}
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{manifest_path}: {err}") from None
        labels = doc.get("labels", {}) if isinstance(doc, dict) else None
        if not isinstance(labels, dict) or not all(isinstance(v, str) for v in labels.values()):
            raise ValueError(f"{manifest_path}: a manifest must be a JSON object whose "
                             f"labels is an object of strings")
    per_trial = {}  # trial id -> (ticks, rows of s and u)
    width = 2 + n_s + n_u
    with open(data_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise ValueError(
                    f"{data_path}:{lineno}: expected {width} fields, got {len(parts)}"
                )
            try:
                trial_id, tick = int(parts[0]), int(parts[1])
                row = [float(x) for x in parts[2:]]
            except ValueError as err:
                raise ValueError(f"{data_path}:{lineno}: {err}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{data_path}:{lineno}: non-finite value")
            ticks, rows = per_trial.setdefault(trial_id, ([], []))
            ticks.append(tick)
            rows.append(row)
    trials = []
    for trial_id in sorted(per_trial):
        ticks, rows = per_trial[trial_id]
        rows = np.array(rows)
        trials.append(Trial(trial_id, labels.get(str(trial_id), ""),
                            states=rows[:, :n_s], commands=rows[:, n_s:], ticks=ticks))
    return trials


def parse_env_label(label):
    """Read (alpha, beta) out of a label like 'alpha=0.4,beta=1.0'."""
    values = {}
    for part in label.split(","):
        if "=" in part:
            key, _, val = part.partition("=")
            values[key.strip()] = float(val)
    try:
        return values["alpha"], values["beta"]
    except KeyError:
        raise ValueError(f"label {label!r} does not encode alpha/beta") from None
