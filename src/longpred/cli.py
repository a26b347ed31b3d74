"""Experiment CLI: reproduces the constant curve, improvement-ratio curve,
rate checks and Monte Carlo scaling experiments as CSV artifacts.

Artifacts are RFC-4180 CSV bodies preceded by ``#``-prefixed reproducibility
header lines (version, seed, config hash).  Reruns with the same config and
seed are byte-identical; files are written atomically (temp file + rename).

Exit codes: 0 success, 1 numeric/accuracy failure, 2 usage error.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import (AccuracyError, DomainError, EstimationError,
                     InternalConsistencyError, NotPositiveDefiniteError,
                     StatisticalPowerError)
from .fraccoeff import (LongMemoryModel, ar_inf_coeffs, exact_autocov,
                        model_from_json)
from .predictor import (ark_plugin_predict, ark_predict, wk_plugin_predict,
                        wk_truncated_predict)
from .series import SamplePath
from .simulate import path_blocks
from .spectral import _MIN_N, whittle_fit
from .toeplitz import durbin_levinson
# the parser names its dispatch targets, so some of these are looked up in
# globals() only
from .risk import (ark_excess, c_of_d, coeffcov_scaling, covmoment_exact,
                   covmoment_scaling, r_of_k, truncation_excess,
                   wk_plugin_scaling, _coeffcov_point, _loglog_slope,
                   _mc_means, _wk_plugin_point)


class UsageError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _config_hash(config):
    # the output location does not define the experiment
    stripped = {k: v for k, v in config.items() if k != "out"}
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def write_artifact(path, columns, rows, seed, config):
    """Atomically write a CSV artifact with a reproducibility header.

    ``rows`` may be any iterable; each row is written as it comes, so a
    generator is never held whole.
    """
    header = (f"# longpred-version: {__version__}\n"
              f"# seed: {seed}\n"
              f"# config-hash: {_config_hash(config)}\n"
              + ",".join(columns) + "\n")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(header)
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        # mkstemp creates 0600; give the file the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_artifact(path):
    """Parse an artifact back into (metadata dict, list of row dicts)."""
    meta = {}
    rows = []
    columns = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif columns is None:
                columns = line.split(",")
            elif line:
                parts = line.split(",")
                row = {}
                for name, raw in zip(columns, parts):
                    try:
                        row[name] = float(raw)
                    except ValueError:
                        row[name] = raw
                rows.append(row)
    return meta, rows


def _parse_grid(text):
    try:
        values = [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}") from exc
    if not values:
        raise UsageError("grid must be non-empty")
    if sorted(values) != values:
        raise UsageError(f"grid {text!r} must be sorted ascending")
    return values


def _parse_int_grid(text):
    return [int(v) for v in _parse_grid(text)]


def _slope_grid(text, flag):
    """The int grid of a command that reports a log-log slope over it."""
    grid = _parse_int_grid(text)
    if len(set(grid)) < 2:
        raise UsageError(f"{flag}: a slope needs at least two distinct grid "
                         f"values, got {text!r}")
    return grid


def _check_training(lengths, flag, k=None, k_flag=None, whittle=False):
    """Usage errors for training paths too short for their fit: an order-k
    Yule-Walker fit needs T > k, a Whittle fit T >= 64."""
    if k is not None and min(lengths) <= k:
        raise UsageError(f"{flag} values must exceed {k_flag} = {k}: an "
                         f"order-{k} Yule-Walker fit needs T > k")
    if whittle and min(lengths) < _MIN_N:
        raise UsageError(f"{flag} values must be >= {_MIN_N} for a Whittle "
                         f"fit")


def _whittle_usage_error(flag, sample):
    """The usage error for a sample whose periodogram ``whittle_fit``
    refuses with EstimationError: zero for a constant sample, or for an
    even length one alternating between two values."""
    return UsageError(f"{flag}: the periodogram of its {len(sample)} values "
                      f"is zero or not finite, so a Whittle fit has nothing "
                      f"to fit")


def _load_model(source):
    """Model from an inline JSON object or a path to a JSON file."""
    if source is None:
        raise UsageError("--model is required")
    text = source.strip()
    if not text.startswith("{"):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"--model: cannot read {text}: "
                             f"{exc.strerror or exc}") from exc
    try:
        return model_from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad --model argument: {exc}") from exc


def _read_values(path, flag):
    """The ``value`` column of a CSV read by ``read_artifact``."""
    if path is None:
        raise UsageError(f"{flag} is required (CSV with a 'value' column)")
    try:
        _, rows = read_artifact(path)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot read {path}: "
                         f"{exc.strerror or exc}") from exc
    if not rows:
        raise UsageError(f"{path}: no data rows")
    try:
        values = [row["value"] for row in rows]
    except KeyError:
        raise UsageError(f"{path}: no 'value' column") from None
    reps = len({row.get("rep") for row in rows})
    if reps > 1:
        raise UsageError(f"{path}: {reps} replicates in its 'rep' column")
    try:
        return SamplePath(values=values)
    except ValueError as exc:
        raise UsageError(f"{flag}: {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_cd_curve(args, config):
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if not (0.0 < args.d_min <= args.d_max < 0.5):
        raise UsageError("need 0 < d-min <= d-max < 1/2")
    grid = np.linspace(args.d_min, args.d_max, args.steps)
    rows = [(d, c_of_d(d)) for d in grid]
    write_artifact(args.out, ["d", "C(d)"], rows, args.seed, config)
    return 0


def _cmd_ratio_curve(args, config):
    d_grid = _parse_grid(args.d)
    k_grid = _parse_int_grid(args.k)
    rows = [(k, d, r_of_k(d, k)) for d in d_grid for k in k_grid]
    write_artifact(args.out, ["k", "d", "r"], rows, args.seed, config)
    return 0


def _cmd_rate(args, config):
    """trunc-rate and ark-rate: the excess function named by ``args.excess``
    over the k grid and its log-log slope in k, for each d."""
    d_grid = _parse_grid(args.d)
    k_grid = _slope_grid(args.k_grid, "--k-grid")
    excess = globals()[args.excess]
    rows = []
    for d in d_grid:
        model = LongMemoryModel.fi(d)
        excesses = [excess(model, k) for k in k_grid]
        slope, _ = _loglog_slope(k_grid, np.asarray(excesses),
                                 np.zeros(len(k_grid)))
        for k, e in zip(k_grid, excesses):
            rows.append((d, k, e, 0.0, slope))
    write_artifact(args.out, ["d", "k", "estimate", "stderr", "fitted_slope"],
                   rows, args.seed, config)
    return 0


def _slope_rows(report):
    return [
        (int(g), est, se, report.slope)
        for g, est, se in zip(report.grid, report.estimates, report.stderrs)
    ]


def _cmd_scaling(args, config):
    """estimation-error and coeffcov-mc: the scaling function named by
    ``args.scaling`` over the T grid."""
    t_grid = _slope_grid(args.t_grid, "--t-grid")
    if args.whittle:
        _check_training(t_grid, "--t-grid", whittle=True)
    else:
        _check_training(t_grid, "--t-grid", k=args.k, k_flag="--k")
    scaling = globals()[args.scaling]
    report = scaling(args.d, args.k, t_grid, args.reps, args.seed)
    write_artifact(args.out, ["T", "estimate", "stderr", "fitted_slope"],
                   _slope_rows(report), args.seed, config)
    return 0


def _cmd_covmoment_mc(args, config):
    report = covmoment_scaling(args.d, _slope_grid(args.n_grid, "--n-grid"),
                               args.reps, args.seed)
    rows = [(n, est, se, covmoment_exact(args.d, n), slope)
            for n, est, se, slope in _slope_rows(report)]
    write_artifact(args.out,
                   ["n", "estimate", "stderr", "exact", "fitted_slope"],
                   rows, args.seed, config)
    return 0


def _cmd_whittle_mc(args, config):
    _check_training([args.t], "--t", whittle=True)
    model = LongMemoryModel.fi(args.d)
    acov = exact_autocov(model, args.t - 1)
    rows = []
    for start, block in path_blocks(acov, args.t, args.reps, args.seed,
                                    stream=(4,)):
        for rep, x in enumerate(block, start):
            fit = whittle_fit(SamplePath(values=x))
            rows.append((rep, fit.d_hat, fit.sigma2_hat))
    write_artifact(args.out, ["rep", "d_hat", "sigma2_hat"], rows, args.seed,
                   config)
    return 0


def _cmd_simulate(args, config):
    model = _load_model(args.model)
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    acov = exact_autocov(model, args.n - 1)
    blocks = path_blocks(acov, args.n, args.reps, args.seed, stream=(5,))
    os.makedirs(args.out, exist_ok=True)
    if args.single_file:
        rows = ((rep, t, x)
                for start, block in blocks
                for rep, path in enumerate(block, start)
                for t, x in enumerate(path))
        write_artifact(os.path.join(args.out, "paths.csv"),
                       ["rep", "t", "value"], rows, args.seed, config)
    else:
        for start, block in blocks:
            for rep, path in enumerate(block, start):
                write_artifact(os.path.join(args.out, f"rep_{rep:04d}.csv"),
                               ["t", "value"], enumerate(path), args.seed,
                               config)
    return 0


def _cmd_predict(args, config):
    window = _read_values(args.window, "--window")
    k = args.k if args.k is not None else len(window)
    if len(window) < k:
        raise UsageError(f"--window holds {len(window)} values, fewer than "
                         f"--k = {k}")
    if args.method in ("wk", "ark"):
        if args.model is None:
            raise UsageError(f"--method {args.method} needs --model")
        model = _load_model(args.model)
        if args.method == "wk":
            coeffs = ar_inf_coeffs(model, k)
            recent = SamplePath(values=window.values[-k:])
            forecast = wk_truncated_predict(coeffs, recent)
        else:
            model_k = durbin_levinson(exact_autocov(model, k), k)
            forecast = ark_predict(model_k, window)
    elif args.method in ("wk-plugin", "ark-plugin"):
        if args.train is None:
            raise UsageError(f"--method {args.method} needs --train")
        train = _read_values(args.train, "--train")
        if args.method == "wk-plugin":
            _check_training([len(train)], "--train", whittle=True)
            try:
                forecast = wk_plugin_predict(train, window, k)
            except EstimationError as exc:
                raise _whittle_usage_error("--train", train) from exc
        else:
            _check_training([len(train)], "--train", k=k, k_flag="--k")
            forecast = ark_plugin_predict(train, window, k)
    else:
        raise UsageError(f"unknown method {args.method!r}")
    print(json.dumps({"method": forecast.method, "k": forecast.order,
                      "value": forecast.value}))
    return 0


def _cmd_fit(args, config):
    sample = _read_values(args.sample, "--sample")
    _check_training([len(sample)], "--sample", whittle=True)
    try:
        fit = whittle_fit(sample, d_bounds=(args.d_min, args.d_max))
    except EstimationError as exc:
        raise _whittle_usage_error("--sample", sample) from exc
    print(json.dumps({"d_hat": fit.d_hat, "sigma2_hat": fit.sigma2_hat,
                      "objective": fit.objective, "at_bound": fit.at_bound}))
    return 0


def _cmd_total_error(args, config):
    """Method error vs estimation error over a (k, T) grid, both predictors:
    the Monte Carlo means without a slope fit, so one T is enough."""
    k_grid = _parse_int_grid(args.k_grid)
    t_grid = _parse_int_grid(args.t_grid)
    _check_training(t_grid, "--t-grid", k=max(k_grid), k_flag="--k-grid",
                    whittle=True)
    model = LongMemoryModel.fi(args.d)
    rows = []
    for k in k_grid:
        trunc = truncation_excess(model, k)
        ark = ark_excess(model, k)
        _, wk_est, _ = _mc_means(t_grid, args.reps, _wk_plugin_point(
            args.d, k, t_grid, args.reps, args.seed))
        _, ark_est, _ = _mc_means(t_grid, args.reps, _coeffcov_point(
            args.d, k, t_grid, args.reps, args.seed))
        for T, wk_mse, ark_mse in zip(t_grid, wk_est, ark_est):
            rows.append((k, T, trunc, wk_mse, trunc + wk_mse,
                         ark, ark_mse, ark + ark_mse))
    write_artifact(
        args.out,
        ["k", "T", "wk_method_excess", "wk_estimation_mse", "wk_total",
         "ark_method_excess", "ark_estimation_mse", "ark_total"],
        rows, args.seed, config,
    )
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def _build_parser():
    """The top-level parser and its subparsers action (``.choices`` maps a
    subcommand to its parser).  Every built-in default sits on its flag.

    Dispatch targets are stored as names of this module's functions and
    looked up per call, so a parser built once still sees a rebound name.
    """
    parser = argparse.ArgumentParser(
        prog="longpred",
        description="Long-memory next-step prediction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, fn, out=True, reps=None, **fixed):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        if out:
            p.add_argument("--out", type=str, default=None)
        if reps is not None:
            p.add_argument("--reps", type=int, default=reps)
        p.set_defaults(fn=fn, **fixed)
        return p

    p = command("cd-curve", "constant of the k^-1 truncation rate",
                "_cmd_cd_curve")
    p.add_argument("--d-min", type=float, default=0.01)
    p.add_argument("--d-max", type=float, default=0.49)
    p.add_argument("--steps", type=int, default=49)

    p = command("ratio-curve", "improvement ratio r(k)", "_cmd_ratio_curve")
    p.add_argument("--d", type=str, default="0.1,0.2,0.3,0.4",
                   help="comma list")
    p.add_argument("--k", type=str, default="10,20,50,100", help="comma list")

    p = command("trunc-rate", "k * truncation excess over a k grid",
                "_cmd_rate", excess="truncation_excess")
    p.add_argument("--d", type=str, default="0.1,0.2,0.3,0.4")
    p.add_argument("--k-grid", type=str, default="100,200,400,800,1600")

    p = command("ark-rate", "k * AR(k) excess over a k grid", "_cmd_rate",
                excess="ark_excess")
    p.add_argument("--d", type=str, default="0.2,0.3")
    p.add_argument("--k-grid", type=str, default="100,200,400,800")

    for name, summary, scaling, whittle in (
            ("estimation-error",
             "wk-plugin vs exact predictor MSE scaling in T",
             "wk_plugin_scaling", True),
            ("coeffcov-mc", "ark-plugin vs exact predictor MSE scaling in T",
             "coeffcov_scaling", False)):
        p = command(name, summary, "_cmd_scaling", reps=200, scaling=scaling,
                    whittle=whittle)
        p.add_argument("--d", type=float, default=0.1)
        p.add_argument("--k", type=int, default=8)
        p.add_argument("--t-grid", type=str, default="1024,2048,4096,8192")

    p = command("covmoment-mc", "lag-0 covariance estimator MSE scaling in n",
                "_cmd_covmoment_mc", reps=200)
    p.add_argument("--d", type=float, default=0.1)
    p.add_argument("--n-grid", type=str, default="1024,2048,4096,8192")

    p = command("whittle-mc", "replicated Whittle fits", "_cmd_whittle_mc",
                reps=100)
    p.add_argument("--d", type=float, default=0.3)
    p.add_argument("--t", type=int, default=4096)

    p = command("simulate", "exact Gaussian sample paths", "_cmd_simulate",
                reps=1)
    p.add_argument("--model", type=str, default=None,
                   help="inline JSON or path to a model JSON file")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--single-file", action="store_true")

    p = command("predict", "one-step forecast from CSV inputs",
                "_cmd_predict", out=False)
    p.add_argument("--method", type=str, default="ark",
                   choices=["wk", "ark", "wk-plugin", "ark-plugin"])
    p.add_argument("--window", type=str, default=None)
    p.add_argument("--train", type=str, default=None)
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--k", type=int, default=None)

    p = command("fit", "Whittle fit of a sample CSV", "_cmd_fit", out=False)
    p.add_argument("--sample", type=str, default=None)
    p.add_argument("--d-min", type=float, default=1e-4)
    p.add_argument("--d-max", type=float, default=0.5 - 1e-4)

    p = command("total-error", "method vs estimation error over a (k, T) grid",
                "_cmd_total_error", reps=100)
    p.add_argument("--d", type=float, default=0.2)
    p.add_argument("--k-grid", type=str, default="8,16,32")
    p.add_argument("--t-grid", type=str, default="512,1024,2048")

    return parser, sub


def _config_type_ok(action, value):
    """Whether a ``--config`` value fits its flag as it is: argparse runs
    only string values through the flag's ``type``, and none for a switch."""
    if isinstance(action, argparse._StoreTrueAction):
        return isinstance(value, bool)
    if isinstance(value, str):
        return True
    kinds = {int: int, float: (int, float)}.get(action.type, ())
    return isinstance(value, kinds) and not isinstance(value, bool)


_PARSER = None  # (parser, subparsers action), built by the first _parse


def _parse(argv):
    """Parsed arguments and the config dict that the artifact header hashes.

    A ``--config`` file becomes the subcommand's defaults before a second
    parse, so an explicit flag beats the file and the file beats the
    built-in default; string values go through the flag's type, and any
    other value must already have it.  The parser is built once per
    process and never changed: a ``--config`` call parses with a parser
    of its own.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    parser, sub = _PARSER
    args = parser.parse_args(argv)
    subparser = sub.choices[args.command]
    actions = {a.dest: a for a in subparser._actions}
    flags = set(actions) - {"help", "config"}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = sorted(set(file_cfg) - flags)
        if unknown:
            raise UsageError(f"unknown --config key(s) for {args.command}: "
                             f"{', '.join(unknown)}")
        for key, value in file_cfg.items():
            if not _config_type_ok(actions[key], value):
                raise UsageError(f"--config {key}: {json.dumps(value)} does "
                                 "not fit the flag's type")
        parser, sub = _build_parser()
        sub.choices[args.command].set_defaults(**file_cfg)
        args = parser.parse_args(argv)
    if "out" in flags and not args.out:
        raise UsageError("--out is required")
    if "reps" in flags and args.reps < 1:
        raise UsageError("--reps must be >= 1")
    for name in {"k", "k_grid"} & flags:
        value = getattr(args, name)
        orders = _parse_int_grid(value) if isinstance(value, str) else [value]
        if value is not None and min(orders) < 1:
            raise UsageError(f"--{name.replace('_', '-')}: an order must be "
                             f">= 1, got {min(orders)}")
    # the subcommand is hashed too: trunc-rate and ark-rate share every flag
    return args, {name: getattr(args, name) for name in flags | {"command"}}


def main(argv=None):
    try:
        args, config = _parse(argv)
        return globals()[args.fn](args, config)
    except SystemExit as exc:  # raised by argparse: usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    # NotPositiveDefiniteError is a ValueError, so numeric failures go first
    except (AccuracyError, EstimationError, InternalConsistencyError,
            NotPositiveDefiniteError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (UsageError, DomainError, StatisticalPowerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
