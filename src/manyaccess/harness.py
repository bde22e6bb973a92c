"""Monte Carlo experiment orchestration and growth-family sweeps.

Each trial is reproducible from (master seed, trial index) alone: the
trial seed is mix_seed(master, index) and one Philox stream drawn from it
feeds, in order, message sampling, the signatures, one 64-bit codebook
key, and the noise.  User i's message codebook comes from substream(key,
i); a joint trial draws the books of its active and detected users, on
the process's book helper (a one-worker ThreadPoolExecutor) beside its
detection and on its own thread, and a book's bytes do not depend on
which thread draws it (channel.UserCodebooks).
Signatures and codebooks are redrawn fresh every trial (the annealed
ensemble the union bounds control); the fixed-codebook mode draws the
signatures and the key from a dedicated substream of the master seed
instead, so every trial sees the same plan.  Trials are independent
tasks, so a thread pool may run them concurrently, every pool thread
sharing the process's one helper; aggregation is by trial index and
therefore order-independent.
"""

import ast
import csv
import functools
import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from . import bounds
from .channel import awgn, make_joint_plan, make_ortho_plan, transmit_joint, transmit_ortho
from .decoding import BoundParams, ErrorStats, ortho_receive, score_errors, two_phase_receive
from .errors import ComplexityBudgetError, ConfigError, InvalidRegimeError
from .model import EnergySchedule, RateSpec, SystemParams, make_joint_schedule, make_ortho_schedule, sample_messages
from .rng import make_rng, mix_seed, thread_rng
from .detection import detection_stats

# substream tag for the fixed-codebook mode
_PLAN_STREAM = 0x706C616E


# ---------------------------------------------------------------------------
# transmission schemes
# ---------------------------------------------------------------------------
# Each stage calls the layer function by its module-global name when it
# runs, so a caller that replaces harness.transmit_joint (say, to time it)
# sees every call.

class JointScheme:
    """Non-orthogonal two-phase access: signatures, then joint ML decoding."""

    split_key = "b"  # config key of the signature fraction

    def schedule(self, params: SystemParams, split: float) -> EnergySchedule:
        """make_joint_schedule, refused when either phase has no channel use."""
        sched = make_joint_schedule(params, split)
        if min(sched.n_sig, sched.n_msg) < 1:
            raise InvalidRegimeError(
                f"signature length {sched.n_sig} and message length {sched.n_msg} "
                "must both be >= 1"
            )
        return sched

    def plan(self, cfg: "ExperimentConfig", sched: EnergySchedule, rng):
        return make_joint_plan(cfg.params, sched, cfg.M, rng)

    def transmit_receive(self, cfg: "ExperimentConfig", sched: EnergySchedule, plan,
                         msgs: np.ndarray, N0: float, rng):
        """(w_hat, d_hat, overflow, budget_abort) of one transmission: the
        bytes of transmit_joint, awgn and two_phase_receive in turn, with
        the work reordered around the books.  The helper draws the active
        users' books while this thread draws the noise, adds S d and
        detects; then the two draw the detected users' books, and the
        message block, noise + (0 + the active users' words), is formed
        and decoded.  A budget abort decodes nobody and reports no user
        detected: it is scored as a total loss."""
        books, n_sig = plan.codebooks, sched.n_sig
        active = msgs.nonzero()[0].tolist()

        def message_block(detected: list[int]) -> np.ndarray:
            books.draw(active + detected)
            Y[n_sig:] += transmit_joint(plan, msgs, "messages")
            return Y[n_sig:]

        with books.drawing(active):
            Y = awgn(np.concatenate([transmit_joint(plan, msgs, "signatures"),
                                     np.zeros(sched.n_msg)]), N0, rng)
            res = two_phase_receive(Y[:n_sig], plan, cfg.params, sched, cfg.bp,
                                    message_block=message_block)
        d_hat = np.zeros_like(res.w_hat) if res.budget_abort else res.detection.d_hat
        return res.w_hat, d_hat, res.overflow, res.budget_abort

    def budget(self, cfg: "ExperimentConfig", sched: EnergySchedule) -> bounds.BoundReport:
        return bounds.two_phase_error_budget(cfg.params, sched, cfg.bp, cfg.M)


class OrthoScheme:
    """Orthogonal access: one pilot+PPM slot per user."""

    split_key = "t"  # config key of the pilot fraction

    def schedule(self, params: SystemParams, split: float) -> EnergySchedule:
        return make_ortho_schedule(params, split)

    def plan(self, cfg: "ExperimentConfig", sched: EnergySchedule, rng):
        return make_ortho_plan(cfg.params, sched, cfg.M)

    def transmit_receive(self, cfg: "ExperimentConfig", sched: EnergySchedule, plan,
                         msgs: np.ndarray, N0: float, rng):
        Y = awgn(transmit_ortho(plan, msgs), N0, rng)
        w_hat = ortho_receive(Y, plan, cfg.params, sched)
        return w_hat, (w_hat != 0).astype(int), False, False

    def budget(self, cfg: "ExperimentConfig", sched: EnergySchedule) -> bounds.BoundReport:
        """Union over users of the per-user pilot+PPM bound."""
        try:
            per_user = bounds.ortho_user_error_bound(cfg.M, cfg.split, sched.E, cfg.params.N0)
        except ValueError as e:
            # message rate above capacity per unit energy: no meaningful bound
            return bounds.BoundReport(value=math.inf, valid=False, terms={}, reason=str(e))
        total = cfg.params.ell * per_user.value
        terms = {"per_user": per_user.value, "union_over_users": total}
        return bounds.BoundReport(value=total, valid=total <= 1.0, terms=terms)


SCHEMES = {"joint": JointScheme(), "ortho": OrthoScheme()}


def _lookup_scheme(name) -> JointScheme | OrthoScheme:
    try:
        return SCHEMES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name from a config file
        raise ConfigError(f"unknown scheme {name!r}; known: {', '.join(SCHEMES)}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str  # a key of SCHEMES
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
        _lookup_scheme(self.scheme)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.M < 2:
            raise ConfigError(f"message count must be >= 2, got {self.M}")
        if not math.isfinite(self.bp.xi * self.params.k):
            raise ConfigError(f"xi * k must be finite, got xi = {self.bp.xi:.4g}")
        if not 0.0 <= self.epsilon <= 1.0:  # NaN fails too
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")

    @property
    def access(self) -> JointScheme | OrthoScheme:
        return SCHEMES[self.scheme]

    @functools.cached_property
    def schedule(self) -> EnergySchedule:
        """The scheme's schedule, built on first read: every trial of a run reads it."""
        return self.access.schedule(self.params, self.split)


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


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One end-to-end transmission; fully determined by (config, index)."""
    seed = mix_seed(cfg.master_seed, trial_index)
    rng = thread_rng("trial", seed)
    access = cfg.access
    sched = cfg.schedule
    msgs = sample_messages(cfg.params, cfg.M, rng)
    plan_rng = make_rng(mix_seed(cfg.master_seed, _PLAN_STREAM)) if cfg.fixed_codebooks else rng
    plan = access.plan(cfg, sched, plan_rng)
    N0 = 0.0 if cfg.noiseless else cfg.params.N0
    w_hat, d_hat, overflow, budget_abort = access.transmit_receive(cfg, sched, plan, msgs, N0, rng)

    d_true = msgs != 0
    kappa1, kappa2 = detection_stats(d_true, d_hat)
    stats = score_errors(msgs, w_hat, overflow or budget_abort)
    return TrialRecord(
        trial=trial_index,
        seed=seed,
        k_true=int(np.count_nonzero(d_true)),
        d_hat_weight=int(np.count_nonzero(d_hat)),
        kappa1=kappa1,
        kappa2=kappa2,
        overflow=overflow,
        budget_abort=budget_abort,
        stats=stats,
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
    budget_aborts: int
    records: tuple[TrialRecord, ...] = field(repr=False, default=())


def _worker_count(threads: int) -> int:
    """The threads a run of trials uses: at least 1, at most the cores."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return min(threads, os.cpu_count() or 1)


def _check_array_sizes(cfg: ExperimentConfig) -> None:
    """MemoryError, before any trial, for a point numpy cannot represent:
    messages are int64 draws below M + 1, and a codebook holds at least
    (M + 1) x n_msg float64 entries."""
    if cfg.M >= 2**63:
        raise MemoryError(f"M = {cfg.M} messages do not fit in int64")
    entries = (cfg.M + 1) * cfg.schedule.n_msg
    if entries * 8 > np.iinfo(np.intp).max:
        raise MemoryError(
            f"a codebook of (M + 1) x n_msg = {entries:.3g} float64 entries "
            "exceeds numpy's largest array"
        )


def estimate_error(cfg: ExperimentConfig, threads: int = 1) -> ErrorSummary:
    """Run cfg.trials independent trials on at most one thread per core and
    aggregate empirical rates; Bernoulli rates come with Wilson 95% intervals.
    A point numpy cannot represent raises MemoryError before any trial."""
    threads = _worker_count(threads)
    _check_array_sizes(cfg)
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
        trials=n, joint_err=joint / n, joint_err_ci=wilson_interval(joint, n),
        ape=float(apes.mean()), ape_stderr=float(apes.std(ddof=1) / math.sqrt(n)) if n > 1 else 1.0,
        overflow_rate=overflow / n, budget_aborts=sum(r.budget_abort for r in records),
        records=tuple(records),
    )


def analytic_budget(cfg: ExperimentConfig) -> bounds.BoundReport:
    """Total analytic error budget for the configured scheme."""
    return cfg.access.budget(cfg, cfg.schedule)


# ---------------------------------------------------------------------------
# growth families, sweeps, regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFamily:
    """Closed-form rules ell(n) and alpha(n, ell) evaluated on an n-grid."""

    name: str
    ell_of_n: Callable[[int], int]
    alpha_of_n: Callable[[int, int], float]

    def params_at(self, n: int, N0: float = 2.0) -> SystemParams:
        """The family's point at n; an invalid point is a ConfigError, a
        fractional ell among them, as a config's is, rather than truncated."""
        try:
            ell = whole_number(self.ell_of_n(n), "ell")
        except TypeError as e:
            raise ConfigError(f"family {self.name!r} at n = {n}: {e}") from None
        alpha = float(self.alpha_of_n(n, ell))
        try:
            p = SystemParams(n=n, ell=ell, alpha=alpha, N0=N0)
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"family {self.name!r} at n = {n}: {e}") from None
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
        if not isinstance(name, str):
            raise ConfigError(f"family name must be a string, got {name!r}")
        ell_expr = _family_expression(data["ell_expr"], ("n",))
        alpha_expr = _family_expression(data["alpha_expr"], ("n", "ell"))
    except KeyError as e:
        raise ConfigError(f"family file missing key: {e}") from e
    return GrowthFamily(name=name, ell_of_n=lambda n: ell_expr(n=n),
                        alpha_of_n=lambda n, ell: alpha_expr(n=n, ell=ell))


@dataclass(frozen=True)
class SummaryRow:
    """One summary or sweep CSV row, fields in column order.  A field
    that was not computed stays None (an empty cell): simulation fields
    when no trials ran, the rate and budget of a point outside the
    scheme's regime, everything but `error` when the family failed."""

    n: int
    ell: int | None = None
    alpha: float | None = None
    k: float | None = None
    E: float | None = None
    R_dot_nats: float | None = None
    R_dot_bits: float | None = None
    joint_err: float | None = None
    joint_err_ci_lo: float | None = None
    joint_err_ci_hi: float | None = None
    ape: float | None = None
    ape_stderr: float | None = None
    overflow_rate: float | None = None
    budget_total: float | None = None
    budget_valid: bool | None = None
    budget_aborts: int | None = None
    converse_nats: float | None = None
    error: str | None = None


def summary_row(
    params: SystemParams, E: float, M: int | None = None,
    budget: bounds.BoundReport | None = None, summary: ErrorSummary | None = None,
    error: str | None = None,
) -> SummaryRow:
    """The row of a point, filled with the stages it completed in order
    (params at energy E; the rate of M messages and the budget; the
    trials), plus the `error` of the stage that failed.  The converse is
    converse_joint at E and Pe = 0, empty at E = 0 (ln n at n = 1, where
    none is defined).  `error` joins with '; ' an infinite budget's
    reason, `error`, and, for a negative converse (which bounds no rate),
    why the point is infeasible; those cells stay empty."""
    cells = dict(n=params.n, ell=params.ell, alpha=params.alpha, k=params.k, E=E)
    errors = []
    if M is not None:
        R_dot = RateSpec.from_message_count(M, E).R_dot
        cells.update(R_dot_nats=R_dot, R_dot_bits=R_dot / math.log(2.0))
    if budget is not None and math.isinf(budget.value):
        errors.append(f"no error budget: {budget.reason}")
    elif budget is not None:
        cells.update(budget_total=budget.value, budget_valid=budget.valid)
    if summary is not None:
        s = summary
        cells.update(joint_err=s.joint_err, joint_err_ci_lo=s.joint_err_ci[0],
                     joint_err_ci_hi=s.joint_err_ci[1], ape=s.ape, ape_stderr=s.ape_stderr,
                     overflow_rate=s.overflow_rate, budget_aborts=s.budget_aborts)
    errors.append(error)
    converse = bounds.converse_joint(params, E, 0.0).value if E > 0.0 else None
    if converse is not None and converse < 0.0:
        errors.append(f"infeasible: converse_joint at E = {E:.6g} is {converse:.6g} < 0")
    else:
        cells["converse_nats"] = converse
    return SummaryRow(**cells, error="; ".join(filter(None, errors)) or None)


# two-sided 99.9% normal quantile: the separation of each ape drop
APE_DROP_Z = 3.290526731491926


@dataclass
class SweepResult:
    rows: list[SummaryRow]
    verdicts: dict[str, str | bool]


def sweep(
    family: GrowthFamily,
    n_grid: list[int],
    R_dot_fraction: float,
    N0: float = 2.0,
    scheme: str = "joint",
    split: float = 0.5,
    trials: int = 0,
    master_seed: int = 0,
    threads: int = 1,
) -> SweepResult:
    """Evaluate schedules, bounds, and (optionally) simulations over a grid.

    The per-user rate target is R_dot_fraction * single-user capacity; M is
    the rounded message count at the schedule energy.  Invalid global
    options, and an n grid that is not strictly increasing (the verdicts
    compare consecutive rows), are a ConfigError before any point runs.
    A point that fails is recorded in its row with what was computed
    before the failure, and the sweep continues: outside the scheme's regime there is no schedule,
    so the row's E is ln(n); a rate that overflows keeps the schedule's
    E; a budget beyond the float range keeps the rate, and summary_row
    gives its reason; a detection budget of more than
    bounds.MAX_DETECTION_TERMS terms keeps the rate; a detection search
    over its budget, an ortho slot too short for M + 1 positions, or a
    message count or codebook too large for numpy to represent or
    allocate keeps the rate and budget too.
    Verdicts over the points the family could evaluate: `regime`
    (load_regime, from 3 points), `converse_decreasing` (from 2 that
    hold a converse) and `ape_decreasing` (from 2 that ran trials: ape
    falls at each step by more than APE_DROP_Z combined standard errors,
    acceptance criterion 11's separation).
    """
    access = _lookup_scheme(scheme)
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split must be in (0,1), got {split}")
    if not 0.0 < N0 < math.inf:
        raise ConfigError(f"N0 must be positive and finite, got {N0}")
    if not 0.0 < R_dot_fraction < math.inf:
        raise ConfigError(f"rate fraction must be positive and finite, got {R_dot_fraction}")
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError(f"n grid must be strictly increasing, got {', '.join(map(str, n_grid))}")
    _worker_count(threads)

    def point(n: int) -> SummaryRow:
        params = E = M = budget = None
        try:
            params = family.params_at(n, N0)
            E = math.log(n)  # with no schedule, the minimal vanishing-error energy
            E = access.schedule(params, split).E
            M = RateSpec.from_rate(R_dot_fraction / N0, E).M
            cfg = ExperimentConfig(scheme=scheme, params=params, split=split, M=M,
                                   trials=max(trials, 1), master_seed=mix_seed(master_seed, n))
            budget = analytic_budget(cfg)
            summary = estimate_error(cfg, threads=threads) if trials > 0 else None
        except OverflowError as e:
            return summary_row(params, E, error=f"rate overflows: {e}")
        except (ConfigError, ComplexityBudgetError, InvalidRegimeError, MemoryError) as e:
            if params is None:  # the family has no point at n
                return SummaryRow(n=n, error=str(e))
            return summary_row(params, E, M, budget, error=str(e) or "out of memory")
        return summary_row(params, E, M, budget, summary)

    rows = [point(n) for n in n_grid]
    good = [r for r in rows if r.k is not None]
    verdicts = {}
    if len(good) >= 3:
        verdicts["regime"] = load_regime(good)
    conv = [r.converse_nats for r in good if r.converse_nats is not None]
    if len(conv) >= 2:
        verdicts["converse_decreasing"] = all(b < a for a, b in zip(conv, conv[1:]))
    ran = [r for r in good if r.ape is not None]
    if len(ran) >= 2:
        verdicts["ape_decreasing"] = all(
            a.ape - b.ape > APE_DROP_Z * math.hypot(a.ape_stderr, b.ape_stderr)
            for a, b in zip(ran, ran[1:])
        )
    return SweepResult(rows=rows, verdicts=verdicts)


def load_regime(points, tol: float = 0.05) -> str:
    """Least-squares slope of ln(k ln(ell) / n) against ln n over points
    with n, ell and k attributes (SystemParams or SummaryRow).

    Slope below -tol: sublinear; above +tol: superlinear; else
    indeterminate, as it is when a point has no load (ell = 1).  A
    tolerance that is not finite or is below 0 is a ConfigError.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tol}")
    if len(points) < 3:
        raise ConfigError(f"need at least 3 grid points, got {len(points)}")
    loads = [p.k * math.log(p.ell) / p.n for p in points]
    if min(loads) <= 0.0:
        return "indeterminate"
    xs = [math.log(p.n) for p in points]
    slope = float(np.polyfit(xs, [math.log(x) for x in loads], 1)[0])
    if slope < -tol:
        return "sublinear"
    if slope > tol:
        return "superlinear"
    return "indeterminate"


def classify_regime(family: GrowthFamily, n_grid: list[int], tol: float = 0.05) -> str:
    """load_regime of the family's points on n_grid."""
    return load_regime([family.params_at(n) for n in n_grid], tol)


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


def _columns(cls) -> list[str]:
    """A dataclass's field names in order, a dataclass field expanded in place."""
    return [c for f in fields(cls) for c in (_columns(f.type) if is_dataclass(f.type) else [f.name])]


def _cells(obj) -> list[str]:
    """obj's formatted values in _columns order."""
    values = (getattr(obj, f.name) for f in fields(obj))
    return [c for v in values for c in (_cells(v) if is_dataclass(v) else [_fmt(v)])]


TRIAL_COLUMNS = _columns(TrialRecord)
SUMMARY_COLUMNS = _columns(SummaryRow)


def _write_csv(path, columns: list[str], rows) -> None:
    """A table holds no timing, so identical seeds give identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(_cells, rows))


def write_summary_csv(path, rows: list[SummaryRow]) -> None:
    _write_csv(path, SUMMARY_COLUMNS, rows)


def write_trials_csv(path, records: tuple[TrialRecord, ...]) -> None:
    _write_csv(path, TRIAL_COLUMNS, records)


def _flag(data: dict, key: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def whole_number(value, key: str) -> int:
    """A JSON number with no fractional part, as an int.

    Booleans, strings and fractions raise TypeError, so "M": 4.7 is
    refused rather than run as M = 4.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{key} must be a whole number, got {value!r}")


def real_number(value, key: str) -> float:
    """A JSON number, int or float, as a float.

    Booleans and strings raise TypeError, so "alpha": true is refused
    rather than run as alpha = 1.0, and "rho": "0.5" rather than read.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{key} must be a number, got {value!r}")


# the config keys of every scheme; each scheme adds its split_key
_CONFIG_KEYS = frozenset(("scheme", "n", "ell", "alpha", "N0", "M", "R_dot_nats", "rho", "lambda",
                          "xi", "trials", "master_seed", "epsilon", "fixed_codebooks", "noiseless"))


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from the documented JSON schema; a key
    the scheme does not read is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    data = {**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    scheme = data.get("scheme", "joint")
    access = _lookup_scheme(scheme)
    unknown = sorted(data.keys() - _CONFIG_KEYS - {access.split_key})
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))} for {scheme!r}")
    try:
        params = SystemParams(
            n=whole_number(data["n"], "n"), ell=whole_number(data["ell"], "ell"),
            alpha=real_number(data["alpha"], "alpha"),
            N0=real_number(data.get("N0", 2.0), "N0"),
        )
        split = real_number(data[access.split_key], access.split_key)
        sched = access.schedule(params, split)
        if "M" in data:
            M = whole_number(data["M"], "M")
        elif "R_dot_nats" in data:
            M = RateSpec.from_rate(real_number(data["R_dot_nats"], "R_dot_nats"), sched.E).M
        else:
            raise ConfigError("config needs either M or R_dot_nats")
        bp = BoundParams(
            rho=real_number(data.get("rho", BoundParams.rho), "rho"),
            lam=real_number(data.get("lambda", BoundParams.lam), "lambda"),
            xi=whole_number(data.get("xi", BoundParams.xi), "xi"),
        )
        return ExperimentConfig(
            scheme=scheme, params=params, split=split, M=M, bp=bp,
            trials=whole_number(data.get("trials", ExperimentConfig.trials), "trials"),
            master_seed=whole_number(data.get("master_seed", ExperimentConfig.master_seed),
                                     "master_seed"),
            epsilon=real_number(data.get("epsilon", ExperimentConfig.epsilon), "epsilon"),
            fixed_codebooks=_flag(data, "fixed_codebooks"), noiseless=_flag(data, "noiseless"),
        )
    except (KeyError, TypeError, OverflowError) as e:
        raise ConfigError(f"bad config: {e}") from e


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh), overrides)


def load_family(path) -> GrowthFamily:
    with open(path) as fh:
        return family_from_dict(json.load(fh))
