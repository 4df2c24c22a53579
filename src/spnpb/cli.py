"""Command-line interface.

Subcommands: collect, train, analyze-pb, adapt, control, evaluate.  Every
flag, required ones included, can also be supplied through `--config
<file>` holding flat `key = value` lines (keys are the flag names without
the leading dashes).  The file's values become the subcommand's
defaults, so explicit flags win over the file in any spelling argparse
accepts.  Exit codes: 0 success, 2 validation
failure, 3 divergence (a non-finite training loss, or a non-finite
training or adaptation gradient), 4 evaluation check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .analysis import nearest_row, pca_project
from .control import ControlConfig
from .csvio import write_csv
from .dataset import load_trials, save_trials
from .evaluate import run_standard_checks
from .experiments import run_adaptation_episode, run_control_batch, run_control_episode
from .model import ModelConfig, load_model, save_model
from .optim import NonFiniteGradientError
from .simulator import SimConfig, collect_trials
from .training import TrainConfig, TrainingDivergedError, train


def _parse_floats(text):
    return [float(x) for x in str(text).split(",") if x != ""]


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _install_config_defaults(parser, values):
    """Make a config file's values the defaults of a subcommand's flags.

    argparse then converts them with each flag's own type, lets any
    explicit flag (in any spelling it accepts) override them, and no
    longer demands a required flag the file supplies.
    """
    actions = {a.dest: a for a in parser._actions if a.option_strings}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None or key == "help":
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(action.default, bool):  # store_true flags
            raw = raw.lower() in ("1", "true", "yes", "on")
        action.required = False
        parser.set_defaults(**{key: raw})


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spnpb",
        description="Stochastic predictive network with parametric bias",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value file supplying defaults")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("collect", help="record random-walk trials from the simulator")
    common(p)
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--alphas", default="0.4,0.5,0.6")
    p.add_argument("--betas", default="0.1,1.0")
    p.add_argument("--trials-per-config", type=int, default=3)
    p.add_argument("--steps", type=int, default=200)

    p = sub.add_parser("train", help="fit the model to a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr-weights", type=float, default=1e-3)
    p.add_argument("--lr-pb", type=float, default=1e-3)
    p.add_argument("--lr-decay", type=float, default=1.0,
                   help="final-epoch weight-lr multiplier (1.0 = constant)")
    p.add_argument("--lr-decay-pb", type=float, default=1.0,
                   help="final-epoch bias-lr multiplier (1.0 = constant)")
    p.add_argument("--grad-clip", type=float, default=10.0)
    p.add_argument("--n-p", type=int, default=2, help="bias vector dimension")
    p.add_argument("--log-every", type=int, default=25)

    p = sub.add_parser("analyze-pb", help="project trained bias vectors by PCA")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="projection CSV to write")

    p = sub.add_parser("adapt", help="adapt the bias online in one environment")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--ticks", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--out", help="trajectory CSV to write")

    p = sub.add_parser("control", help="run closed-loop control episodes")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--c-variance", type=float, default=0.0)
    p.add_argument("--c-orig", type=float, default=0.0)
    p.add_argument("--variance-mode", default="absolute", choices=("absolute", "per_state"))
    p.add_argument("--ticks", type=int, default=40)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds, starting at --seed")
    p.add_argument("--adapt", action="store_true", help="adapt the bias online instead of using the trained one")
    p.add_argument("--out", help="directory for per-seed and averaged CSVs")

    p = sub.add_parser("evaluate", help="run the behavioral checks on a trained model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="report file to write")
    return parser, sub.choices


def _cmd_collect(args):
    alphas = _parse_floats(args.alphas)
    betas = _parse_floats(args.betas)
    configs = [
        SimConfig(alpha=a, beta=b, seed=args.seed + i)
        for i, (a, b) in enumerate((a, b) for a in alphas for b in betas)
    ]
    trials = collect_trials(configs, steps_per_trial=args.steps,
                            trials_per_config=args.trials_per_config)
    save_trials(trials, args.out)
    print(f"wrote {len(trials)} trials x {args.steps} steps to {args.out}")
    return 0


def _cmd_train(args):
    trials = load_trials(args.data)
    if not trials:
        raise ValueError(f"{args.data} holds no trials")
    config = TrainConfig(
        epochs=args.epochs, lr_weights=args.lr_weights, lr_pb=args.lr_pb,
        lr_decay=args.lr_decay, lr_decay_pb=args.lr_decay_pb,
        grad_clip=args.grad_clip, seed=args.seed)
    model_config = ModelConfig(
        n_s=trials[0].states.shape[1], n_u=trials[0].commands.shape[1], n_p=args.n_p)

    def on_epoch(epoch, loss):
        if args.log_every > 0 and (epoch % args.log_every == 0 or epoch == args.epochs - 1):
            print(f"epoch {epoch}: total nll {loss:.3f}")

    params = train(trials, config, model_config=model_config, on_epoch=on_epoch)
    save_model(params, args.out)
    print(f"wrote model to {args.out}")
    return 0


def _cmd_analyze_pb(args):
    params = load_model(args.model)
    if params.pb_table.shape[0] < 2:
        raise ValueError("model holds fewer than two trained bias vectors")
    result = pca_project(params.pb_table)
    # labels hold commas (alpha=...,beta=...); keep the cell CSV-safe
    labels = [lab.replace(",", ";") for lab in params.pb_labels]
    rows = [
        (i, labels[i] if i < len(labels) else "",
         result.projected[i][0], result.projected[i][1],
         params.pb_table[i][0], params.pb_table[i][1])
        for i in range(params.pb_table.shape[0])
    ]
    write_csv(args.out, "pb_projection", rows)
    print(f"explained variance fractions: {result.explained[0]:.4f}, {result.explained[1]:.4f}")
    print(f"wrote projection of {len(rows)} bias vectors to {args.out}")
    return 0


def _cmd_adapt(args):
    params = load_model(args.model)
    from .adaptation import LivePB
    live = LivePB.zeros(params.config.n_p, lr=args.lr)
    episode = run_adaptation_episode(
        params, SimConfig(alpha=args.alpha, beta=args.beta, seed=args.seed),
        args.ticks, args.seed, live=live, out_path=args.out)
    p = episode.final_p
    print(f"final bias after {args.ticks} ticks: ({p[0]:.4f}, {p[1]:.4f})")
    if params.pb_table.shape[0]:
        idx = nearest_row(params.pb_table, p)
        print(f"nearest trained bias: row {idx} ({params.pb_labels[idx]})")
    if args.out:
        print(f"wrote trajectory to {args.out}")
    return 0


def _cmd_control(args):
    params = load_model(args.model)
    control_config = ControlConfig(
        c_variance=args.c_variance, c_orig=args.c_orig,
        variance_mode=args.variance_mode)
    sim_config = SimConfig(alpha=args.alpha, beta=args.beta, seed=args.seed)
    label = f"alpha={args.alpha},beta={args.beta}"
    p = None
    if not args.adapt:
        try:
            p = params.pb_for_label(label)
        except KeyError:
            raise ValueError(
                f"model has no trained bias for {label}; pass --adapt to adapt online")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.seeds == 1:
        out_path = None
        if args.out:
            out_path = os.path.join(args.out, f"control_seed{args.seed}.csv")
        episode = run_control_episode(
            params, sim_config, control_config, args.seed, n_ticks=args.ticks,
            p=p, adapt_online=args.adapt, out_path=out_path)
        episodes = [episode]
    else:
        if args.adapt:
            raise ValueError("--adapt runs one seed at a time")
        episodes = run_control_batch(
            params, sim_config, control_config,
            seeds=range(args.seed, args.seed + args.seeds),
            n_ticks=args.ticks, p=p, out_dir=args.out,
            tag=f"control_c{args.c_variance:g}")
    sigma = float(np.mean([e.mean_sigma_trans() for e in episodes]))
    rmse = float(np.mean([e.tracking_rmse() for e in episodes]))
    print(f"episodes: {len(episodes)}  mean predicted sigma_trans: {sigma:.4f}  "
          f"tracking rmse: {rmse:.4f}")
    if args.out:
        print(f"wrote logs to {args.out}")
    return 0


def _cmd_evaluate(args):
    params = load_model(args.model)
    results = run_standard_checks(params, seed=args.seed)
    lines = [r.line() for r in results]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 4


def _parse_args(argv):
    """Parse argv once, with the subcommand's defaults taken from --config.

    A first pass reads only --config; the subcommand is the first bare
    word, since the top-level parser takes no valued options.
    """
    parser, commands = _build_parser()
    pre = argparse.ArgumentParser(prog="spnpb", add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    command = next((a for a in argv if not a.startswith("-")), None)
    if config and command in commands:
        _install_config_defaults(commands[command], _read_config_file(config))
    return parser.parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    handlers = {
        "collect": _cmd_collect,
        "train": _cmd_train,
        "analyze-pb": _cmd_analyze_pb,
        "adapt": _cmd_adapt,
        "control": _cmd_control,
        "evaluate": _cmd_evaluate,
    }
    try:
        args = _parse_args(argv)
        return handlers[args.command](args)
    except (TrainingDivergedError, NonFiniteGradientError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
