"""Monte Carlo experiment orchestration and growth-family sweeps.

Each trial is reproducible from (master seed, trial index) alone: the
trial seed is mix_seed(master, index) and one Philox stream drawn from it
feeds, in order, message sampling, codebook/signature generation, and the
noise.  Codebooks are redrawn fresh every trial (the annealed ensemble
the union bounds control); a fixed-codebook mode reuses a dedicated
substream of the master seed instead.  Trials are independent tasks, so
a thread pool may run them concurrently; aggregation is by trial index
and therefore order-independent.
"""

import ast
import csv
import json
import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds
from .channel import TransmissionPlan, awgn, make_joint_plan, make_ortho_plan, transmit_joint, transmit_ortho
from .decoding import BoundParams, ErrorStats, ortho_receive, score_errors, two_phase_receive
from .errors import ComplexityBudgetError, ConfigError
from .model import EnergySchedule, RateSpec, SystemParams, make_joint_schedule, make_ortho_schedule, sample_messages
from .rng import make_rng, mix_seed
from .detection import DEFAULT_CANDIDATE_BUDGET, candidate_count, detection_stats, v_cap

SUMMARY_COLUMNS = [
    "n", "ell", "alpha", "k", "E", "R_dot_nats", "R_dot_bits",
    "joint_err", "joint_err_ci_lo", "joint_err_ci_hi", "ape",
    "overflow_rate", "budget_total", "budget_valid",
]

TRIAL_COLUMNS = [
    "trial", "seed", "k_true", "d_hat_weight", "kappa1", "kappa2",
    "overflow", "budget_abort", "joint_error", "per_user_errors", "ape",
]

# substream tag for the fixed-codebook mode
_PLAN_STREAM = 0x706C616E


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str  # "joint" | "ortho"
    params: SystemParams
    split: float  # b (joint) or t (ortho)
    M: int
    bp: BoundParams = BoundParams()
    trials: int = 100
    master_seed: int = 0
    epsilon: float = 0.1
    fixed_codebooks: bool = False
    noiseless: bool = False

    def __post_init__(self):
        if self.scheme not in ("joint", "ortho"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.M < 2:
            raise ConfigError(f"message count must be >= 2, got {self.M}")

    @property
    def schedule(self) -> EnergySchedule:
        if self.scheme == "joint":
            return make_joint_schedule(self.params, self.split)
        return make_ortho_schedule(self.params, self.split)

    @property
    def rate(self) -> RateSpec:
        return RateSpec.from_message_count(self.M, self.schedule.E)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    k_true: int
    d_hat_weight: int
    kappa1: int
    kappa2: int
    overflow: bool
    budget_abort: bool
    stats: ErrorStats
    wall_time: float


def _build_plan(cfg: ExperimentConfig, sched: EnergySchedule, rng) -> TransmissionPlan:
    if cfg.scheme == "joint":
        return make_joint_plan(cfg.params, sched, cfg.M, rng)
    return make_ortho_plan(cfg.params, sched, cfg.M)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One end-to-end transmission; fully determined by (config, index)."""
    t0 = time.perf_counter()
    seed = mix_seed(cfg.master_seed, trial_index)
    rng = make_rng(seed)
    sched = cfg.schedule
    msgs = sample_messages(cfg.params, cfg.M, rng)
    if cfg.fixed_codebooks:
        plan = _build_plan(cfg, sched, make_rng(mix_seed(cfg.master_seed, _PLAN_STREAM)))
    else:
        plan = _build_plan(cfg, sched, rng)

    if cfg.scheme == "joint":
        clean = transmit_joint(plan, msgs)
    else:
        clean = transmit_ortho(plan, msgs)
    Y = awgn(clean, 0.0 if cfg.noiseless else cfg.params.N0, rng)

    d_true = (msgs != 0).astype(int)
    budget_abort = False
    overflow = False
    if cfg.scheme == "joint":
        try:
            res = two_phase_receive(Y, plan, cfg.params, sched, cfg.bp)
            w_hat, overflow = res.w_hat, res.overflow
            d_hat = res.detection.d_hat
        except ComplexityBudgetError:
            # a config-deterministic blowup (the detection search itself is
            # over budget) propagates; a data-dependent decode blowup is
            # scored conservatively as a total loss for this trial
            if candidate_count(cfg.params.ell, v_cap(cfg.params, sched)) > DEFAULT_CANDIDATE_BUDGET:
                raise
            budget_abort = True
            w_hat = np.zeros(cfg.params.ell, dtype=int)
            d_hat = np.zeros(cfg.params.ell, dtype=int)
    else:
        w_hat = ortho_receive(Y, plan, cfg.params, sched)
        d_hat = (w_hat != 0).astype(int)

    kappa1, kappa2 = detection_stats(d_true, d_hat)
    stats = score_errors(msgs, w_hat, overflow or budget_abort)
    return TrialRecord(
        trial=trial_index,
        seed=seed,
        k_true=int(d_true.sum()),
        d_hat_weight=int(d_hat.sum()),
        kappa1=kappa1,
        kappa2=kappa2,
        overflow=overflow,
        budget_abort=budget_abort,
        stats=stats,
        wall_time=time.perf_counter() - t0,
    )


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class ErrorSummary:
    trials: int
    joint_err: float
    joint_err_ci: tuple[float, float]
    ape: float
    ape_stderr: float
    overflow_rate: float
    overflow_ci: tuple[float, float]
    budget_aborts: int
    interval_valid: bool
    records: tuple[TrialRecord, ...] = field(repr=False, default=())


def estimate_error(cfg: ExperimentConfig, threads: int = 1) -> ErrorSummary:
    """Run cfg.trials independent trials and aggregate empirical rates.

    Bernoulli rates come with Wilson 95% intervals; the interval flag is
    set once at least 30 trials back them.
    """
    indices = range(cfg.trials)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda i: run_trial(cfg, i), indices))
    else:
        records = [run_trial(cfg, i) for i in indices]
    n = len(records)
    joint = sum(r.stats.joint_error for r in records)
    overflow = sum(r.overflow for r in records)
    apes = np.array([r.stats.ape for r in records])
    return ErrorSummary(
        trials=n,
        joint_err=joint / n,
        joint_err_ci=wilson_interval(joint, n),
        ape=float(apes.mean()),
        ape_stderr=float(apes.std(ddof=1) / math.sqrt(n)) if n > 1 else 1.0,
        overflow_rate=overflow / n,
        overflow_ci=wilson_interval(overflow, n),
        budget_aborts=sum(r.budget_abort for r in records),
        interval_valid=n >= 30,
        records=tuple(records),
    )


def analytic_budget(cfg: ExperimentConfig) -> bounds.BoundReport:
    """Total analytic error budget for the configured scheme."""
    sched = cfg.schedule
    if cfg.scheme == "joint":
        return bounds.two_phase_error_budget(cfg.params, sched, cfg.bp, cfg.M)
    try:
        per_user = bounds.ortho_user_error_bound(cfg.M, cfg.split, sched.E, cfg.params.N0)
    except ValueError:
        # message rate above capacity per unit energy: no meaningful bound
        return bounds.BoundReport(value=math.inf, valid=False, terms={})
    total = min(1.0, cfg.params.ell * per_user.value)
    return bounds.BoundReport(
        value=total,
        valid=per_user.value <= 1.0,
        terms={"per_user": per_user.value, "union_over_users": total},
    )


# ---------------------------------------------------------------------------
# growth families, sweeps, regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFamily:
    """Closed-form rules ell(n) and alpha(n, ell) evaluated on an n-grid."""

    name: str
    ell_of_n: Callable[[int], int]
    alpha_of_n: Callable[[int, int], float]

    def params_at(self, n: int, N0: float) -> SystemParams:
        ell = int(self.ell_of_n(n))
        alpha = float(self.alpha_of_n(n, ell))
        p = SystemParams(n=n, ell=ell, alpha=alpha, N0=N0)
        if p.k < 1.0:
            raise ConfigError(f"family {self.name!r} gives k = {p.k:.4g} < 1 at n = {n}")
        return p


_FAMILY_EVAL_NAMES = {
    "ceil": math.ceil, "floor": math.floor, "sqrt": math.sqrt,
    "log": math.log, "log2": math.log2, "exp": math.exp, "min": min, "max": max,
}


def _float_pow(base, exponent) -> float:
    # in floats, so a huge power overflows at once instead of building an int
    value = float(base) ** float(exponent)
    if isinstance(value, complex):
        raise ValueError("negative base raised to a fractional power")
    return value


_FAMILY_BINARY_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Pow: _float_pow,
}


def _compile_family_node(node: ast.AST, variables: tuple[str, ...]) -> Callable[[dict], float]:
    """Evaluator for one checked node; anything not listed is a ConfigError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        return lambda env: value
    if isinstance(node, ast.Name) and node.id in variables:
        name = node.id
        return lambda env: env[name]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile_family_node(node.operand, variables)
        return lambda env: -operand(env)
    if isinstance(node, ast.BinOp) and type(node.op) in _FAMILY_BINARY_OPS:
        op = _FAMILY_BINARY_OPS[type(node.op)]
        left = _compile_family_node(node.left, variables)
        right = _compile_family_node(node.right, variables)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        if node.func.id not in _FAMILY_EVAL_NAMES:
            raise ConfigError(f"unknown function {node.func.id!r}")
        fn = _FAMILY_EVAL_NAMES[node.func.id]
        args = [_compile_family_node(arg, variables) for arg in node.args]
        return lambda env: fn(*(arg(env) for arg in args))
    if isinstance(node, ast.Name):
        raise ConfigError(f"unknown name {node.id!r}")
    raise ConfigError(f"unsupported syntax {ast.unparse(node)!r}")


def _family_expression(expr, variables: tuple[str, ...]) -> Callable[..., float]:
    """Check a growth-family expression at load time and return its evaluator.

    Accepted: numeric constants, the given variables, + - * / // ** (** in
    floats), unary minus and calls to the names in _FAMILY_EVAL_NAMES.
    Anything else, and any arithmetic failure or non-finite value when the
    evaluator runs, is a ConfigError.
    """
    if not isinstance(expr, str):
        raise ConfigError(f"family expression must be a string, got {expr!r}")
    try:
        root = _compile_family_node(ast.parse(expr, mode="eval").body, variables)
    # ValueError covers ConfigError; the parser raises MemoryError on deep nesting
    except (SyntaxError, ValueError, MemoryError, RecursionError) as e:
        raise ConfigError(f"family expression {expr!r}: {e}") from e

    def evaluate(**env) -> float:
        try:
            value = root(env)
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value}")
        except (ArithmeticError, ValueError, TypeError, RecursionError) as e:
            raise ConfigError(f"family expression {expr!r} at {env}: {e}") from e
        return value

    return evaluate


def family_from_dict(data: dict) -> GrowthFamily:
    """Build a family from {'name', 'ell_expr', 'alpha_expr'}.

    Expressions see `n` (and `ell` in alpha_expr) plus basic math names,
    e.g. {"ell_expr": "ceil(n**(1/3))", "alpha_expr": "2/ell"}; they are
    checked here, so a malformed one fails before any point is evaluated.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"family file must hold a JSON object, got {type(data).__name__}")
    try:
        name = data["name"]
        ell_expr = _family_expression(data["ell_expr"], ("n",))
        alpha_expr = _family_expression(data["alpha_expr"], ("n", "ell"))
    except KeyError as e:
        raise ConfigError(f"family file missing key: {e}") from e

    def ell_of_n(n: int) -> int:
        return int(ell_expr(n=n))

    def alpha_of_n(n: int, ell: int) -> float:
        return float(alpha_expr(n=n, ell=ell))

    return GrowthFamily(name=name, ell_of_n=ell_of_n, alpha_of_n=alpha_of_n)


@dataclass
class SweepRow:
    n: int
    ell: int
    alpha: float
    k: float
    E: float
    R_dot_nats: float
    R_dot_bits: float
    joint_err: float | None
    joint_err_ci: tuple[float, float] | None
    ape: float | None
    overflow_rate: float | None
    budget_total: float
    budget_valid: bool
    converse_nats: float = math.inf
    error: str | None = None


@dataclass
class SweepResult:
    rows: list[SweepRow]
    verdicts: dict[str, bool]


def sweep(
    family: GrowthFamily,
    n_grid: list[int],
    R_dot_fraction: float,
    N0: float = 2.0,
    scheme: str = "joint",
    split: float = 0.5,
    trials: int = 0,
    bp: BoundParams = BoundParams(),
    master_seed: int = 0,
    threads: int = 1,
) -> SweepResult:
    """Evaluate schedules, bounds, and (optionally) simulations over a grid.

    The per-user rate target is R_dot_fraction * single-user capacity; M is
    the rounded message count at the schedule energy.  Per-point failures
    are recorded in the row and the sweep continues.
    """
    rows: list[SweepRow] = []
    for n in n_grid:
        try:
            params = family.params_at(n, N0)
        except ConfigError as e:
            rows.append(
                SweepRow(
                    n=n, ell=0, alpha=0.0, k=0.0, E=0.0, R_dot_nats=0.0, R_dot_bits=0.0,
                    joint_err=None, joint_err_ci=None, ape=None, overflow_rate=None,
                    budget_total=math.inf, budget_valid=False, error=str(e),
                )
            )
            continue
        try:
            sched = (
                make_joint_schedule(params, split)
                if scheme == "joint"
                else make_ortho_schedule(params, split)
            )
            rate = RateSpec.from_rate(R_dot_fraction / N0, sched.E)
            cfg = ExperimentConfig(
                scheme=scheme,
                params=params,
                split=split,
                M=rate.M,
                bp=bp,
                trials=max(trials, 1),
                master_seed=mix_seed(master_seed, n),
            )
            budget = analytic_budget(cfg)
            converse = bounds.converse_joint(params, sched.E, 0.0).value
            if trials > 0:
                summary = estimate_error(cfg, threads=threads)
                sim = (
                    summary.joint_err,
                    summary.joint_err_ci,
                    summary.ape,
                    summary.overflow_rate,
                )
            else:
                sim = (None, None, None, None)
            rows.append(
                SweepRow(
                    n=n, ell=params.ell, alpha=params.alpha, k=params.k,
                    E=sched.E, R_dot_nats=rate.R_dot, R_dot_bits=rate.R_dot / math.log(2.0),
                    joint_err=sim[0], joint_err_ci=sim[1], ape=sim[2], overflow_rate=sim[3],
                    budget_total=budget.value, budget_valid=budget.valid,
                    converse_nats=converse,
                )
            )
        except (ConfigError, ValueError, ComplexityBudgetError) as e:
            # outside the scheme's regime (or over budget): the converse is
            # still evaluated, at the minimal vanishing-error energy ln(n)
            converse = bounds.converse_joint(params, math.log(n), 0.0).value
            rows.append(
                SweepRow(
                    n=n, ell=params.ell, alpha=params.alpha, k=params.k,
                    E=math.log(n), R_dot_nats=0.0, R_dot_bits=0.0,
                    joint_err=None, joint_err_ci=None, ape=None, overflow_rate=None,
                    budget_total=math.inf, budget_valid=False,
                    converse_nats=converse, error=str(e),
                )
            )
    good = [r for r in rows if r.ell > 0]
    verdicts = {}
    if len(good) >= 2:
        loads = [r.k * math.log(r.ell) / r.n for r in good]
        verdicts["load_decreasing"] = all(b < a for a, b in zip(loads, loads[1:]))
        conv = [r.converse_nats for r in good]
        verdicts["converse_decreasing"] = all(b < a for a, b in zip(conv, conv[1:]))
        budgets = [r.budget_total for r in good if r.error is None]
        if len(budgets) >= 2:
            verdicts["budget_decreasing"] = all(b < a for a, b in zip(budgets, budgets[1:]))
        errs = [r.joint_err for r in good if r.joint_err is not None]
        if len(errs) >= 2:
            verdicts["joint_err_decreasing"] = all(b <= a for a, b in zip(errs, errs[1:]))
    return SweepResult(rows=rows, verdicts=verdicts)


def classify_regime(
    family: GrowthFamily, n_grid: list[int], N0: float = 2.0, tol: float = 0.05
) -> str:
    """Least-squares slope of ln(k ln(ell) / n) against ln n.

    Slope below -tol: sublinear; above +tol: superlinear; else
    indeterminate.
    """
    if len(n_grid) < 3:
        raise ConfigError(f"need at least 3 grid points, got {len(n_grid)}")
    xs, ys = [], []
    for n in n_grid:
        params = family.params_at(n, N0)
        xs.append(math.log(n))
        ys.append(math.log(params.k * math.log(params.ell) / n))
    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope < -tol:
        return "sublinear"
    if slope > tol:
        return "superlinear"
    return "indeterminate"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def summary_row(cfg: ExperimentConfig, summary: ErrorSummary, budget: bounds.BoundReport) -> dict:
    sched = cfg.schedule
    rate = cfg.rate
    return {
        "n": cfg.params.n, "ell": cfg.params.ell, "alpha": cfg.params.alpha,
        "k": cfg.params.k, "E": sched.E, "R_dot_nats": rate.R_dot,
        "R_dot_bits": rate.R_dot / math.log(2.0),
        "joint_err": summary.joint_err,
        "joint_err_ci_lo": summary.joint_err_ci[0],
        "joint_err_ci_hi": summary.joint_err_ci[1],
        "ape": summary.ape, "overflow_rate": summary.overflow_rate,
        "budget_total": budget.value, "budget_valid": budget.valid,
    }


def write_summary_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in SUMMARY_COLUMNS])


def write_trials_csv(path, records: tuple[TrialRecord, ...]) -> None:
    """Per-trial CSV; excludes wall time so identical seeds give identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIAL_COLUMNS)
        for r in records:
            writer.writerow([
                r.trial, r.seed, r.k_true, r.d_hat_weight, r.kappa1, r.kappa2,
                int(r.overflow), int(r.budget_abort), int(r.stats.joint_error),
                r.stats.per_user_errors, _fmt(r.stats.ape),
            ])


def sweep_rows_to_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for r in result.rows:
            ci = r.joint_err_ci or (None, None)
            writer.writerow([
                _fmt(r.n), _fmt(r.ell), _fmt(r.alpha), _fmt(r.k), _fmt(r.E),
                _fmt(r.R_dot_nats), _fmt(r.R_dot_bits), _fmt(r.joint_err),
                _fmt(ci[0]), _fmt(ci[1]), _fmt(r.ape), _fmt(r.overflow_rate),
                _fmt(r.budget_total), _fmt(r.budget_valid),
            ])


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from the documented JSON schema."""
    data = dict(raw)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        params = SystemParams(
            n=int(data["n"]), ell=int(data["ell"]),
            alpha=float(data["alpha"]), N0=float(data.get("N0", 2.0)),
        )
        scheme = data.get("scheme", "joint")
        split = float(data["b"] if scheme == "joint" else data["t"])
        sched = (
            make_joint_schedule(params, split)
            if scheme == "joint"
            else make_ortho_schedule(params, split)
        )
        if "M" in data:
            M = int(data["M"])
        elif "R_dot_nats" in data:
            M = RateSpec.from_rate(float(data["R_dot_nats"]), sched.E).M
        else:
            raise ConfigError("config needs either M or R_dot_nats")
        bp = BoundParams(
            rho=float(data.get("rho", 0.75)),
            lam=float(data.get("lambda", 2.0 / 3.0)),
            xi=int(data.get("xi", 8)),
        )
        return ExperimentConfig(
            scheme=scheme,
            params=params,
            split=split,
            M=M,
            bp=bp,
            trials=int(data.get("trials", 100)),
            master_seed=int(data.get("master_seed", 0)),
            epsilon=float(data.get("epsilon", 0.1)),
            fixed_codebooks=bool(data.get("fixed_codebooks", False)),
            noiseless=bool(data.get("noiseless", False)),
        )
    except (KeyError, TypeError, OverflowError) as e:
        raise ConfigError(f"bad config: {e}") from e


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return config_from_dict(raw, overrides)


def load_family(path) -> GrowthFamily:
    with open(path) as fh:
        return family_from_dict(json.load(fh))
