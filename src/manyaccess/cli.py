"""Command-line surface.

Subcommands: bounds, simulate, sweep, partition, classify, mu.  Exit
codes: 0 success, 2 config error, 3 complexity-budget abort (including
an array too large to allocate).  Rates are reported in both nats and
bits per unit energy.  An output path is opened before the work that
fills it, so one that cannot be written exits 2 at once.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import bounds as bnd
from . import harness
from .codebooks import mu_chernoff_lb, mu_exact, mu_monte_carlo
from .decoding import BoundParams
from .errors import ComplexityBudgetError, ConfigError
from .model import SystemParams, single_user_capacity_pue
from .partition import build_partition, partition_to_json, verify_partition
from .rng import make_rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _joint_inputs(n, ell, alpha, N0, b, rho, lam, xi):
    params = SystemParams(n, ell, alpha, N0)
    sched = harness.SCHEMES["joint"].schedule(params, b)  # refuses an empty phase
    return params, sched, BoundParams(rho=rho, lam=lam, xi=xi)


def _detection_budget(*args):
    params, sched, bp = _joint_inputs(*args)
    return bnd.detection_budget(params, sched, bp, mu_exact(sched.n_sig).value)


def _two_phase_error_budget(M, *args):
    return bnd.two_phase_error_budget(*_joint_inputs(*args), M)


def _on_system(bound):
    """bound(params, E, Pe) called with the SystemParams fields spelled out."""
    return lambda n, ell, alpha, N0, E, Pe: bound(SystemParams(n, ell, alpha, N0), E, Pe)


def _capacity_pue(N0):
    c = single_user_capacity_pue(N0)
    return {"nats": c, "bits": c / math.log(2.0)}


_SYSTEM = ("n", "ell", "alpha", "N0")
_DECODE = ("rho", "M", "k_active", "E_msg", "n_msg", "N0")
# optional --params keys, as (key, default)
_JOINT_OPTIONAL = (("rho", BoundParams.rho), ("lambda", BoundParams.lam), ("xi", BoundParams.xi))

# bound name -> (function, the --params keys of its positional arguments)
BOUNDS = {
    "e0_msg": (bnd.e0_msg, ("a", "rho", "k_active", "E_msg", "n_msg", "N0")),
    "pr_type_error_ub": (bnd.pr_type_error_ub, ("a", *_DECODE, "mu")),
    "decode_error_budget": (bnd.decode_error_budget, (*_DECODE, "mu")),
    "f_msg": (bnd.f_msg, ("a", *_DECODE)),
    "detect_exponent_g": (
        bnd.detect_exponent_g,
        ("lambda", "rho", "kappa1", "kappa2", "d_weight", "ell", "n_sig", "E_sig"),
    ),
    "detection_budget": (_detection_budget, (*_SYSTEM, "b", *_JOINT_OPTIONAL)),
    "two_phase_error_budget": (_two_phase_error_budget, ("M", *_SYSTEM, "b", *_JOINT_OPTIONAL)),
    "gallager_awgn": (bnd.gallager_awgn, ("M", "n_code", "P", "N0", "rho")),
    "ortho_code_bound": (bnd.ortho_code_bound, ("M", "R_dot_nats", "N0")),
    "ortho_user_error_bound": (bnd.ortho_user_error_bound, ("M", "t", "E", "N0")),
    "converse_joint": (_on_system(bnd.converse_joint), (*_SYSTEM, "E", "Pe")),
    "converse_ape": (_on_system(bnd.converse_ape), (*_SYSTEM, "E", "Pe_A")),
    "converse_ortho_user": (bnd.converse_ortho_user, ("E", "n1", "N0", "P1")),
    "joint_error_lb": (bnd.joint_error_lb, ("E", "ell", "N0", "alpha")),
    "gaussian_kl": (bnd.gaussian_kl, ("delta_sq_norm", "N0")),
    "normal_tail": (lambda x: bnd.normal_tail(x)._asdict(), ("x",)),
    "capacity_pue": (_capacity_pue, ("N0",)),
}


# --params keys that count something (users, messages, channel uses)
_WHOLE_KEYS = frozenset(
    ("M", "k_active", "n_msg", "kappa1", "kappa2", "d_weight", "ell", "n_sig", "n", "xi",
     "n_code", "n1")
)


def _bound_dispatch(name: str, p: dict):
    """Evaluate a bound by name from flattened JSON parameters; a key the
    bound does not read is a ConfigError."""
    if name not in BOUNDS:
        raise ConfigError(f"unknown bound {name!r}")
    fn, keys = BOUNDS[name]
    unknown = sorted(p.keys() - {k if isinstance(k, str) else k[0] for k in keys})
    if unknown:
        raise ConfigError(f"{name} takes no --params key {', '.join(map(repr, unknown))}")
    return fn(*(p[k] if isinstance(k, str) else p.get(*k) for k in keys))


def _finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _nonfinite_fields(result: dict, inf_ok: bool, prefix: str = "") -> list[str]:
    """'NaN in x' or 'inf in x' for each non-finite number of a bound's
    result, x its dotted name; with inf_ok only NaN counts."""
    bad = []
    for k, v in result.items():
        if isinstance(v, dict):
            bad += _nonfinite_fields(v, inf_ok, f"{prefix}{k}.")
        elif isinstance(v, float) and not math.isfinite(v) and not (inf_ok and math.isinf(v)):
            bad.append(f"{'NaN' if math.isnan(v) else 'inf'} in {prefix}{k}")
    return bad


def _cmd_bounds(args) -> int:
    params = json.loads(args.params)
    if not isinstance(params, dict) or not all(map(_finite_number, params.values())):
        raise ConfigError("--params must be a JSON object of finite numbers")
    try:
        params = {k: harness.whole_number(v, k) if k in _WHOLE_KEYS else v
                  for k, v in params.items()}
    except TypeError as e:
        raise ConfigError(f"--params: {e}") from e
    try:
        result = _bound_dispatch(args.name, params)
    except OverflowError as e:  # e.g. math.floor of an infinite xi * k
        raise ConfigError(f"{args.name} overflows at these --params: {e}") from e
    if isinstance(result, bnd.BoundReport):
        result = result.to_dict()
    elif not isinstance(result, dict):
        result = {"value": result}
    # documented infinities: a result marked invalid (a converse past its
    # denominator, detection_budget at c <= 0, a budget beyond the float
    # range) and normal_tail's vacuous upper bound at x <= 0
    inf_ok = result.get("valid") is False or (args.name == "normal_tail" and params["x"] <= 0)
    bad = _nonfinite_fields(result, inf_ok)
    if bad:
        raise ConfigError(
            f"{args.name} has no finite value at these --params: {', '.join(bad)} "
            "(an intermediate term overflowed or underflowed)"
        )
    print(json.dumps(result, indent=2))
    return EXIT_OK


@contextlib.contextmanager
def _output_files(*paths):
    """Check that each given output path can be written before the work
    that fills it starts, so a bad path fails at once.  A path that did not
    exist is created empty and removed again if the work fails; an
    existing file is left as it is until the work writes it."""
    created = []
    try:
        for path in filter(None, paths):
            if not os.path.exists(path):
                created.append(path)
            open(path, "a").close()
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _cmd_simulate(args) -> int:
    overrides = {"trials": args.trials, "master_seed": args.seed}
    with _output_files(args.trials_csv, args.summary_csv):
        cfg = harness.load_config(args.config, overrides)
        summary = harness.estimate_error(cfg, threads=args.threads)
        budget = harness.analytic_budget(cfg)
        row = harness.summary_row(cfg.params, cfg.schedule.E, cfg.M, budget, summary)
        if args.trials_csv:
            harness.write_trials_csv(args.trials_csv, summary.records)
        if args.summary_csv:
            harness.write_summary_csv(args.summary_csv, [row])
    payload = dataclasses.asdict(row)
    payload["budget_terms"] = budget.terms
    payload["epsilon_target"] = cfg.epsilon
    payload["meets_epsilon"] = summary.joint_err <= cfg.epsilon
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    with _output_files(args.out):
        family = harness.load_family(args.family)
        n_grid = [int(x) for x in args.n_grid.split(",")]
        result = harness.sweep(
            family,
            n_grid,
            R_dot_fraction=args.rate_fraction,
            N0=args.N0,
            scheme=args.scheme,
            split=args.split,
            trials=args.trials if args.trials is not None else 0,
            master_seed=args.seed or 0,
            threads=args.threads,
        )
        harness.write_summary_csv(args.out, result.rows)
    print(json.dumps({"rows": len(result.rows), "verdicts": result.verdicts, "csv": args.out}))
    return EXIT_OK


def _cmd_partition(args) -> int:
    with _output_files(args.out):
        p = build_partition(args.ell, args.M, args.t)
        report = verify_partition(p, args.ell)
        out = partition_to_json(p, report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
            out = json.dumps({"ok": report.ok, "json": args.out})
    print(out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    family = harness.load_family(args.family)
    n_grid = [int(x) for x in args.n_grid.split(",")]
    verdict = harness.classify_regime(family, n_grid, tol=args.tol)
    print(json.dumps({"family": family.name, "verdict": verdict}))
    return EXIT_OK


def _cmd_mu(args) -> int:
    payload = {
        "length": args.length,
        "exact": mu_exact(args.length).value,
        "chernoff_lb": mu_chernoff_lb(args.length).value,
    }
    if args.mc_trials:
        est = mu_monte_carlo(args.length, args.mc_trials, make_rng(args.seed or 0))
        payload["monte_carlo"] = est.value
        payload["monte_carlo_stderr"] = est.stderr
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="manyaccess",
        description="Simulator and bound calculator for Gaussian random-access many-user channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound by name")
    p.add_argument("name")
    p.add_argument("--params", default="{}", help="JSON object of bound parameters")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="run one Monte Carlo config")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trials-csv", default=None, help="write the per-trial CSV here")
    p.add_argument("--summary-csv", default=None, help="write the one-row summary CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="bound/simulation table over a growth family")
    p.add_argument("--family", required=True, help="JSON family file")
    p.add_argument("--n-grid", required=True, help="comma-separated blocklengths")
    p.add_argument("--rate-fraction", type=float, default=0.25)
    p.add_argument("--N0", type=float, default=2.0)
    p.add_argument("--scheme", choices=sorted(harness.SCHEMES), default="joint")
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("partition", help="build and verify a type-class partition")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("classify", help="sublinear/superlinear verdict for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--n-grid", required=True)
    p.add_argument("--tol", type=float, default=0.05)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mu", help="truncation normalizer: exact, Chernoff, Monte Carlo")
    p.add_argument("length", type=int)
    p.add_argument("--mc-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_mu)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ComplexityBudgetError, MemoryError) as e:
        print(f"complexity budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
