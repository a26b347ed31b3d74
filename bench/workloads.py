"""The benchmark workloads: inputs made from a seed, the operations of one
pass, and the parsing of their outputs for the checks in reference.py.

Every operation is looked up through a longpred module attribute when it
runs, so the traced run sees it through the wrappers tracing.py installs.
"""

import os
import random

import numpy as np

import longpred
from longpred import cli

import reference


class Op:
    """One operation: a CLI subcommand writing an artifact, or a library call."""

    def __init__(self, key, call, artifact=None, convert=None):
        self.key = key
        self.call = call
        self.artifact = artifact
        self.convert = convert

    def run(self):
        """Run the operation; return its raw output, or None if it failed."""
        if self.artifact is None:
            return self.call()
        return None if self.call() != 0 else True

    def collect(self, raw):
        """Raw output -> comparable value: artifact bytes, array or float."""
        if self.artifact is not None:
            with open(self.artifact, "rb") as fh:
                return fh.read()
        return self.convert(raw) if self.convert else raw


def _cli_op(key, workdir, argv):
    path = os.path.join(workdir, f"{key}.csv")
    return Op(key, lambda: cli.main(argv + ["--out", path]), artifact=path)


def _grid(values):
    return ",".join(repr(v) for v in values)


class Workload:
    """Inputs, operations and checks of one workload at one seed."""

    def __init__(self, name, inputs, ops, parse, check):
        self.name = name
        self.inputs = inputs
        self.ops = ops
        self._parse = parse
        self._check = check

    def parse(self, outputs):
        return self._parse(self.inputs, outputs)

    def check(self, parsed):
        return self._check(self.inputs, parsed)


# ---------------------------------------------------------------------------
# fi-risk: analytic FI(d) tables through the CLI, plus one compute_H


def _fi_risk(seed, workdir):
    rng = random.Random(seed)
    d_lo = 0.10 + rng.uniform(-0.005, 0.005)
    d_hi = 0.45 - rng.uniform(0.0, 0.005)
    # the cd-curve grid, so C(d) is reported at every d of the tables
    d_grid = [float(x) for x in np.linspace(d_lo, d_hi, 3)]
    s = ["--seed", str(seed)]
    H_model = longpred.LongMemoryModel.fi(d_grid[0])
    inputs = {"d_grid": d_grid}
    ops = [
        _cli_op("cd", workdir, ["cd-curve", "--d-min", repr(d_lo), "--d-max",
                                repr(d_hi), "--steps", "3"] + s),
        _cli_op("cd_quarter", workdir, ["cd-curve", "--d-min", "0.25",
                                        "--d-max", "0.25", "--steps", "1"] + s),
        _cli_op("trunc_lo", workdir, ["trunc-rate", "--d", _grid(d_grid[:2]),
                                      "--k-grid", "50,100,200,400"] + s),
        _cli_op("trunc_hi", workdir, ["trunc-rate", "--d", _grid(d_grid[2:]),
                                      "--k-grid", "100,200,400,800,1600"] + s),
        _cli_op("ark", workdir, ["ark-rate", "--d", _grid(d_grid),
                                 "--k-grid", "100,200,400,800,1600"] + s),
        _cli_op("ratio", workdir, ["ratio-curve", "--d", _grid(d_grid),
                                   "--k", "10,20,50"] + s),
        Op("H", lambda: longpred.compute_H(H_model, longpred.durbin_levinson(
            longpred.exact_autocov(H_model, 8), 8))),
    ]

    def parse(inp, out):
        parsed = {k: reference.parse_artifact(v) for k, v in out.items()
                  if k != "H"}
        parsed["H"] = out["H"]
        return parsed

    return Workload("fi-risk", inputs, ops, parse, reference.check_fi_risk)


# ---------------------------------------------------------------------------
# farima-risk: the same public functions on FARIMA models, by library call


def _farima_risk(seed, workdir):
    rng = random.Random(seed)
    models = {
        "farima_1d0": (0.3 + rng.uniform(-0.003, 0.003),
                       0.5 + rng.uniform(-0.01, 0.01), 0.0),
        "farima_1d1": (0.2 + rng.uniform(-0.003, 0.003),
                       0.5 + rng.uniform(-0.01, 0.01),
                       0.3 + rng.uniform(-0.01, 0.01)),
    }
    inputs = {"models": models, "acov_lags": (1000, 8000),
              "ark_orders": (50, 200, 800), "trunc_order": 10}
    ops = []
    for name, (d, phi, theta) in models.items():
        model = longpred.LongMemoryModel.farima(
            d, ar=(phi,), ma=(theta,) if theta else ())
        for m in inputs["acov_lags"]:
            ops.append(Op(f"{name}.acov{m}",
                          lambda model=model, m=m:
                          longpred.exact_autocov(model, m).values))
        for k in inputs["ark_orders"]:
            ops.append(Op(f"{name}.ark{k}",
                          lambda model=model, k=k: longpred.ark_excess(model, k)))
        k = inputs["trunc_order"]
        ops.append(Op(f"{name}.trunc{k}",
                      lambda model=model, k=k:
                      longpred.truncation_excess(model, k)))
    return Workload("farima-risk", inputs, ops, lambda inp, out: out,
                    reference.check_farima_risk)


# ---------------------------------------------------------------------------
# mc-paths: Monte Carlo subcommands through the CLI, plus one innovations run


def _mc_paths(seed, workdir):
    inputs = {
        "coeffcov": {"d": 0.4, "k": 8, "grid": (4096, 8192, 16384, 32768),
                     "reps": 100},
        "covmoment": {"d": 0.1, "grid": (1024, 2048, 4096, 8192), "reps": 100},
        "estimation": {"d": 0.1, "k": 8, "grid": (512, 1024, 2048, 4096),
                       "reps": 200},
        "innovations": {"d": 0.3, "n": 2048, "reps": 32},
    }
    s = ["--seed", str(seed)]

    def mc(cfg, grid_flag, *extra):
        return (["--d", repr(cfg["d"]), grid_flag, _grid(cfg["grid"]),
                 "--reps", str(cfg["reps"])] + list(extra) + s)

    c, m, e = inputs["coeffcov"], inputs["covmoment"], inputs["estimation"]
    innov = inputs["innovations"]
    model = longpred.LongMemoryModel.fi(innov["d"])
    ops = [
        _cli_op("coeffcov", workdir, ["coeffcov-mc"]
                + mc(c, "--t-grid", "--k", str(c["k"]))),
        _cli_op("covmoment", workdir, ["covmoment-mc"] + mc(m, "--n-grid")),
        _cli_op("estimation", workdir, ["estimation-error"]
                + mc(e, "--t-grid", "--k", str(e["k"]))),
        Op("innovations", lambda: longpred.gaussian_paths(
            longpred.exact_autocov(model, innov["n"] - 1), innov["n"],
            innov["reps"], seed, stream=(7,), method="innovations"),
           convert=lambda paths: np.array([p.values for p in paths])),
    ]

    def parse(inp, out):
        parsed = {k: reference.parse_artifact(v) for k, v in out.items()
                  if k != "innovations"}
        parsed["innovations"] = out["innovations"]
        return parsed

    return Workload("mc-paths", inputs, ops, parse, reference.check_mc_paths)


WORKLOADS = {"fi-risk": _fi_risk, "farima-risk": _farima_risk,
             "mc-paths": _mc_paths}


def build(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)
