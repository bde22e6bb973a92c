"""Closed-form achievability and converse expressions.

Every bound returns a BoundReport whose named terms recompute to the
reported value, so downstream consumers (tests, CLI) can audit each
piece.  All arithmetic is in nats; products of combinatorial factors are
assembled in log domain.  Values outside the meaningful range (e.g.
probability bounds above 1) are reported as-is with valid=False rather
than clamped: finite-size evaluation of asymptotic expressions routinely
leaves the meaningful range and callers need to see that.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .codebooks import mu_exact
from .decoding import BoundParams
from .detection import v_cap
from .model import EnergySchedule, SystemParams, binary_entropy

RHO_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class BoundReport:
    """Bound value with itemized intermediate terms."""

    value: float
    valid: bool
    terms: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"value": self.value, "valid": self.valid, "terms": dict(self.terms)}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _binom_pmf(j: int, n: int, p: float) -> float:
    if p >= 1.0:
        return 1.0 if j == n else 0.0
    if p <= 0.0:
        return 1.0 if j == 0 else 0.0
    return math.exp(_log_binom(n, j) + j * math.log(p) + (n - j) * math.log(1.0 - p))


# ---------------------------------------------------------------------------
# random-coding decode bounds (joint scheme)
# ---------------------------------------------------------------------------

def e0_msg(
    a: float, rho: float, k_active: int, E_msg: float, n_msg: int, N0: float
) -> float:
    """Random-coding exponent (rho/2) ln(1 + 2a k' E'/(n'(rho+1)N0)) in nats."""
    _require(0.0 < rho <= 1.0, f"rho must be in (0,1], got {rho}")
    _require(0.0 < a <= 1.0, f"error fraction must be in (0,1], got {a}")
    _require(k_active >= 1, f"active count must be >= 1, got {k_active}")
    _require(E_msg >= 0.0, f"message energy must be >= 0, got {E_msg}")
    _require(n_msg >= 1, f"message length must be >= 1, got {n_msg}")
    _require(N0 > 0.0, f"noise level must be positive, got {N0}")
    return (rho / 2.0) * math.log1p(2.0 * a * k_active * E_msg / (n_msg * (rho + 1.0) * N0))


def pr_type_error_ub(
    a: float,
    rho: float,
    M: int,
    k_active: int,
    E_msg: float,
    n_msg: int,
    N0: float,
    mu: float,
) -> BoundReport:
    """Union bound on Pr{fraction a of the k' decoded messages are wrong}:

        (1/mu)^(2k') C(k', a k') M^(a k' rho) exp(-n' E0(a, rho)).
    """
    _require(M >= 2, f"message count must be >= 2, got {M}")
    _require(0.0 < mu <= 1.0, f"mu must be in (0,1], got {mu}")
    ak = a * k_active
    _require(abs(ak - round(ak)) < 1e-9 and round(ak) >= 1, f"a*k' must be a positive integer, got {ak}")
    ak = round(ak)
    e0 = e0_msg(a, rho, k_active, E_msg, n_msg, N0)
    log_mu_factor = -2.0 * k_active * math.log(mu)
    log_binomial = _log_binom(k_active, ak)
    log_rate_term = ak * rho * math.log(M)
    exponent = n_msg * e0
    value = math.exp(log_mu_factor + log_binomial + log_rate_term - exponent)
    return BoundReport(
        value=value,
        valid=value <= 1.0,
        terms={
            "log_mu_factor": log_mu_factor,
            "log_binomial": log_binomial,
            "log_rate_term": log_rate_term,
            "exponent": exponent,
            "e0": e0,
        },
    )


def decode_error_budget(
    rho: float,
    M: int,
    k_active: int,
    E_msg: float,
    n_msg: int,
    N0: float,
    mu: float,
) -> BoundReport:
    """Decode-error budget for k' detected users: the sum of the type-error
    bounds over error fractions a in {1/k', ..., 1}."""
    terms = {}
    total = 0.0
    for j in range(1, k_active + 1):
        a = j / k_active
        rep = pr_type_error_ub(a, rho, M, k_active, E_msg, n_msg, N0, mu)
        terms[f"a={j}/{k_active}"] = rep.value
        total += rep.value
    return BoundReport(value=total, valid=total <= 1.0, terms=terms)


def f_msg(
    a: float, rho: float, M: int, k_active: int, E_msg: float, n_msg: int, N0: float
) -> float:
    """Normalized decode exponent per unit energy:

        n' E0(a, rho)/E' - a rho k' ln(M)/E' - k' H2(a)/E'.
    """
    _require(M >= 2, f"message count must be >= 2, got {M}")
    _require(E_msg > 0.0, f"message energy must be positive, got {E_msg}")
    e0 = e0_msg(a, rho, k_active, E_msg, n_msg, N0)
    return (
        n_msg * e0 - a * rho * k_active * math.log(M) - k_active * binary_entropy(a)
    ) / E_msg


# ---------------------------------------------------------------------------
# detection bounds (joint scheme)
# ---------------------------------------------------------------------------

def detect_exponent_g(
    lam: float,
    rho: float,
    kappa1: int,
    kappa2: int,
    d_weight: int,
    ell: int,
    n_sig: int,
    E_sig: float,
) -> float:
    """Detection error exponent per unit signature half-energy Et = E_sig/2:

        g = -((1-rho) n''/(2Et)) ln(1 + lam k2 Et/n'')
            + (n''/(2Et)) ln(1 + lam(1-lam rho) k2 Et/n'' + lam rho (1-lam rho) k1 Et/n'')
            - (|d|/Et) H2(k1/|d|) - (rho ell/Et) H2(k2/ell).

    Vanishes at k1 = k2 = 0; the budget multiplies it by Et.
    """
    _require(lam >= 0.0, f"lambda must be >= 0, got {lam}")
    _require(0.0 <= rho <= 1.0, f"rho must be in [0,1], got {rho}")
    _require(E_sig > 0.0, f"signature energy must be positive, got {E_sig}")
    _require(n_sig >= 1, f"signature length must be >= 1, got {n_sig}")
    _require(0 <= kappa1 <= max(d_weight, 0), f"kappa1 out of range: {kappa1}")
    _require(0 <= kappa2 <= ell, f"kappa2 out of range: {kappa2}")
    et = E_sig / 2.0
    x = et / n_sig
    g = -((1.0 - rho) * n_sig / (2.0 * et)) * math.log1p(lam * kappa2 * x)
    g += (n_sig / (2.0 * et)) * math.log1p(
        lam * (1.0 - lam * rho) * kappa2 * x + lam * rho * (1.0 - lam * rho) * kappa1 * x
    )
    if d_weight > 0:
        g -= (d_weight / et) * binary_entropy(kappa1 / d_weight)
    g -= (rho * ell / et) * binary_entropy(kappa2 / ell)
    return g


def detect_exponent_split(
    lam: float,
    rho: float,
    kappa1: int,
    kappa2: int,
    d_weight: int,
    ell: int,
    n_sig: int,
    E_sig: float,
) -> tuple[float, float]:
    """Miss-only and false-alarm-only exponent components.

    These are the two pieces obtained by splitting the joint log via
    2 ln(1+x+y) >= ln(1+x) + ln(1+y); along schedule sequences with
    v*Et/n'' -> 0 their minima over kappa >= 1 approach
    lam rho (1-lam rho)/4 and lam (1-lam rho)/4 nats per unit energy.
    """
    et = E_sig / 2.0
    x = et / n_sig
    miss = (n_sig / (4.0 * et)) * math.log1p(lam * rho * (1.0 - lam * rho) * kappa1 * x)
    if d_weight > 0:
        miss -= (d_weight / et) * binary_entropy(kappa1 / d_weight)
    fa = (n_sig / (4.0 * et)) * math.log1p(lam * (1.0 - lam * rho) * kappa2 * x)
    fa -= ((1.0 - rho) / (2.0 * et)) * math.log1p(lam * kappa2 * x)
    fa -= (rho * ell / et) * binary_entropy(kappa2 / ell)
    return miss, fa


def detection_budget(
    params: SystemParams,
    sched: EnergySchedule,
    bp: BoundParams,
    mu: float,
) -> BoundReport:
    """Itemized upper bound on the probability of a detection error.

    Sums three branches: (i) the binomial Chernoff overflow term
    exp(-k c/3) for more than v = floor(k(1+c)) active users; (ii) over
    activity weights 1 <= |d| <= v weighted by the binomial activity law,
    the union over admissible (kappa1, kappa2) of
    (1/mu)^(|d| + rho kappa2) exp(-Et g); (iii) the no-active-user branch
    weighted by (1-alpha)^ell with exponent q' - u'.  Admissibility:
    kappa1 <= |d|, kappa1 + kappa2 >= 1, |d| + kappa2 <= v + kappa1, and
    kappa2 never exceeds the ell - |d| inactive users (v and |d| are also
    clamped to ell: the asymptotic v can exceed ell at desk scale).
    """
    if sched.scheme != "joint":
        raise ValueError("detection budget applies to the joint scheme")
    _require(0.0 < mu <= 1.0, f"mu must be in (0,1], got {mu}")
    if sched.c <= 0.0 or sched.E_sig <= 0.0:
        return BoundReport(value=math.inf, valid=False, terms={"overflow": math.inf})
    ell, alpha, k = params.ell, params.alpha, params.k
    v = v_cap(params, sched)
    v_eff = min(v, ell)
    et = sched.E_sig / 2.0
    log_inv_mu = -math.log(mu)

    overflow = math.exp(-k * sched.c / 3.0)

    detect_sum = 0.0
    for j in range(1, v_eff + 1):
        pmf = _binom_pmf(j, ell, alpha)
        if pmf == 0.0:
            continue
        inner = 0.0
        for kappa1 in range(0, j + 1):
            k2_hi = min(v, ell - j)
            for kappa2 in range(0, k2_hi + 1):
                if kappa1 + kappa2 < 1 or j + kappa2 > v + kappa1:
                    continue
                g = detect_exponent_g(
                    bp.lam, bp.rho, kappa1, kappa2, j, ell, sched.n_sig, sched.E_sig
                )
                inner += math.exp((j + bp.rho * kappa2) * log_inv_mu - et * g)
        detect_sum += pmf * inner

    p_zero = _binom_pmf(0, ell, alpha)
    zero_sum = 0.0
    for kappa2 in range(1, min(v, ell) + 1):
        qp = (sched.n_sig / (2.0 * et)) * math.log1p(kappa2 * et / (4.0 * sched.n_sig))
        up = (ell / et) * binary_entropy(kappa2 / ell)
        zero_sum += math.exp(kappa2 * log_inv_mu - et * (qp - up))
    zero_active = p_zero * zero_sum

    value = overflow + detect_sum + zero_active
    valid = overflow <= 1.0 and detect_sum <= 1.0 and zero_active <= 1.0 and value <= 1.0
    return BoundReport(
        value=value,
        valid=valid,
        terms={"overflow": overflow, "detect_sum": detect_sum, "zero_active": zero_active},
    )


def two_phase_error_budget(
    params: SystemParams,
    sched: EnergySchedule,
    bp: BoundParams,
    M: int,
) -> BoundReport:
    """Total analytic error budget for the two-phase scheme:

        detection budget + sum_k' Pr{K' = k'} * decode budget(k') + 1/xi.

    The decode budget for each detected count k' takes the best rho on the
    grid; mu uses the exact truncation normalizers for the signature and
    message lengths.
    """
    mu_sig = mu_exact(sched.n_sig).value
    mu_msg = mu_exact(sched.n_msg).value
    det = detection_budget(params, sched, bp, mu_sig)
    cap = min(math.floor(bp.xi * params.k), params.ell)
    decode = 0.0
    for k_active in range(1, cap + 1):
        pmf = _binom_pmf(k_active, params.ell, params.alpha)
        if pmf == 0.0:
            continue
        best = min(
            decode_error_budget(rho, M, k_active, sched.E_msg, sched.n_msg, params.N0, mu_msg).value
            for rho in RHO_GRID
        )
        decode += pmf * best
    markov = 1.0 / bp.xi
    value = det.value + decode + markov
    return BoundReport(
        value=value,
        valid=value <= 1.0,
        terms={"detection": det.value, "decode": decode, "markov": markov},
    )


# ---------------------------------------------------------------------------
# single-user / orthogonal bounds
# ---------------------------------------------------------------------------

def gallager_awgn(M: int, n_code: int, P: float, N0: float, rho: float) -> BoundReport:
    """Random-coding bound M^rho exp(-n E0(rho, P)) for the point-to-point
    AWGN channel with per-symbol power P."""
    _require(M >= 2, f"message count must be >= 2, got {M}")
    _require(n_code >= 1, f"blocklength must be >= 1, got {n_code}")
    _require(P >= 0.0, f"power must be >= 0, got {P}")
    _require(N0 > 0.0, f"noise level must be positive, got {N0}")
    _require(0.0 < rho <= 1.0, f"rho must be in (0,1], got {rho}")
    e0 = (rho / 2.0) * math.log1p(2.0 * P / ((1.0 + rho) * N0))
    value = math.exp(rho * math.log(M) - n_code * e0)
    return BoundReport(
        value=value,
        valid=value <= 1.0,
        terms={"e0": e0, "log_rate_term": rho * math.log(M), "exponent": n_code * e0},
    )


def ortho_code_bound(M: int, R_dot_nats: float, N0: float) -> BoundReport:
    """Decode-error upper bound for an orthogonal code with M words at rate
    per unit energy R (nats):

        exp(-(ln M / R)(1/(2 N0) - R))          for R <= 1/(4 N0),
        exp(-(ln M / R)(sqrt(1/N0) - sqrt(R))^2) for 1/(4 N0) <= R <= 1/N0.

    The two expressions agree at R = 1/(4 N0).
    """
    _require(M >= 2, f"message count must be >= 2, got {M}")
    _require(N0 > 0.0, f"noise level must be positive, got {N0}")
    _require(R_dot_nats > 0.0, f"rate must be positive, got {R_dot_nats}")
    if R_dot_nats > 1.0 / N0:
        raise ValueError(f"rate {R_dot_nats} exceeds capacity per unit energy {1.0 / N0}")
    ln_m = math.log(M)
    if R_dot_nats <= 1.0 / (4.0 * N0):
        exponent = (ln_m / R_dot_nats) * (1.0 / (2.0 * N0) - R_dot_nats)
        branch = 0.0
    else:
        exponent = (ln_m / R_dot_nats) * (math.sqrt(1.0 / N0) - math.sqrt(R_dot_nats)) ** 2
        branch = 1.0
    value = math.exp(-exponent)
    return BoundReport(value=value, valid=True, terms={"exponent": exponent, "branch": branch})


def ortho_user_error_bound(M: int, t: float, E: float, N0: float) -> BoundReport:
    """Per-user error bound of the pilot+PPM scheme:

        2 Q(sqrt(t E/(2 N0))) + ortho decode bound at rate ln(M)/((1-t)E).

    The Q argument is the pilot threshold sqrt(tE)/2 normalized by the
    noise standard deviation sqrt(N0/2).
    """
    _require(0.0 < t < 1.0, f"pilot fraction must be in (0,1), got {t}")
    _require(E > 0.0, f"energy must be positive, got {E}")
    _require(N0 > 0.0, f"noise level must be positive, got {N0}")
    pilot = 2.0 * normal_tail(math.sqrt(t * E / (2.0 * N0))).q
    decode = ortho_code_bound(M, math.log(M) / ((1.0 - t) * E), N0).value
    value = pilot + decode
    return BoundReport(
        value=value, valid=value <= 1.0, terms={"pilot": pilot, "decode": decode}
    )


# ---------------------------------------------------------------------------
# converse bounds
# ---------------------------------------------------------------------------

def converse_joint(params: SystemParams, E: float, Pe: float) -> BoundReport:
    """Fano-based upper bound on the rate per unit energy under joint error:

        R <= [ln4/(kE) + (H2(a)/(aE))(4Pe - 1) + 4Pe(1/E + 1/k)
              + (n/(2kE)) ln(1 + 2kE/(n N0))] / (1 - 4Pe(1 + 1/k)).
    """
    _require(E > 0.0, f"energy must be positive, got {E}")
    _require(0.0 <= Pe < 1.0, f"error probability must be in [0,1), got {Pe}")
    k, alpha, n, N0 = params.k, params.alpha, params.n, params.N0
    fano = math.log(4.0) / (k * E)
    entropy = (binary_entropy(alpha) / (alpha * E)) * (4.0 * Pe - 1.0)
    error = 4.0 * Pe * (1.0 / E + 1.0 / k)
    mutual = (n / (2.0 * k * E)) * math.log1p(2.0 * k * E / (n * N0))
    prefactor = 1.0 - 4.0 * Pe * (1.0 + 1.0 / k)
    terms = {"fano": fano, "entropy": entropy, "error": error, "mutual_info": mutual,
             "prefactor": prefactor}
    if prefactor <= 0.0:
        return BoundReport(value=math.inf, valid=False, terms=terms)
    return BoundReport(value=(fano + entropy + error + mutual) / prefactor, valid=True, terms=terms)


def converse_ape(params: SystemParams, E: float, Pe_A: float) -> BoundReport:
    """Upper bound on the rate per unit energy under per-user error:

        R <= [(ln2 - H2(a))/E + (n/(2 ell E)) ln(1 + 2kE/(n N0))] / (a - Pe_A).

    The additive Fano constant (one bit) is converted to ln2 nats.
    """
    _require(E > 0.0, f"energy must be positive, got {E}")
    _require(Pe_A >= 0.0, f"error probability must be >= 0, got {Pe_A}")
    k, alpha, n, ell, N0 = params.k, params.alpha, params.n, params.ell, params.N0
    fano = (math.log(2.0) - binary_entropy(alpha)) / E
    mutual = (n / (2.0 * ell * E)) * math.log1p(2.0 * k * E / (n * N0))
    denom = alpha - Pe_A
    terms = {"fano": fano, "mutual_info": mutual, "denominator": denom}
    if denom <= 0.0:
        return BoundReport(value=math.inf, valid=False, terms=terms)
    return BoundReport(value=(fano + mutual) / denom, valid=True, terms=terms)


def converse_ortho_user(E: float, n1: int, N0: float, P1: float) -> BoundReport:
    """Single-user Fano bound for an orthogonal slot of n1 channel uses:

        R <= [1/E + (n1/(2E)) ln(1 + 2E/(n1 N0))] / (1 - P1).
    """
    _require(E > 0.0, f"energy must be positive, got {E}")
    _require(n1 >= 1, f"slot length must be >= 1, got {n1}")
    _require(N0 > 0.0, f"noise level must be positive, got {N0}")
    _require(P1 >= 0.0, f"error probability must be >= 0, got {P1}")
    fano = 1.0 / E
    mutual = (n1 / (2.0 * E)) * math.log1p(2.0 * E / (n1 * N0))
    denom = max(0.0, 1.0 - P1)
    terms = {"fano": fano, "mutual_info": mutual, "denominator": denom}
    if P1 >= 1.0:
        return BoundReport(value=math.inf, valid=False, terms=terms)
    return BoundReport(value=(fano + mutual) / denom, valid=True, terms=terms)


def joint_error_lb(E: float, ell: int, N0: float, alpha: float) -> BoundReport:
    """Lower bound on the joint error probability of any code:

        max(0, 1 - (256 E/N0 + ln2)/ln(ell)) * (1 - (1-alpha)^ell).
    """
    _require(E >= 0.0, f"energy must be >= 0, got {E}")
    _require(ell >= 5, f"user count must be >= 5, got {ell}")
    _require(N0 > 0.0, f"noise level must be positive, got {N0}")
    _require(0.0 < alpha <= 1.0, f"activity probability must be in (0,1], got {alpha}")
    typ = max(0.0, 1.0 - (256.0 * E / N0 + math.log(2.0)) / math.log(ell))
    some_active = 1.0 - (1.0 - alpha) ** ell
    value = typ * some_active
    return BoundReport(
        value=value, valid=True, terms={"per_type": typ, "some_active": some_active}
    )


def birge_bound(kl_matrix: np.ndarray) -> float:
    """Upper bound on the average success probability of N-ary hypothesis
    testing from pairwise relative entropies:

        (1/N) sum_i P_i(A_i) <= ((1/N^2) sum_ij D_ij + ln2) / ln(N-1).
    """
    D = np.asarray(kl_matrix, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"relative-entropy matrix must be square, got {D.shape}")
    N = D.shape[0]
    if N <= 2:
        raise ValueError(f"need at least 3 hypotheses, got {N}")
    if (D < 0).any():
        raise ValueError("relative entropies must be nonnegative")
    if not np.allclose(np.diag(D), 0.0):
        raise ValueError("relative-entropy matrix must have zero diagonal")
    return float((D.sum() / N**2 + math.log(2.0)) / math.log(N - 1))


def gaussian_kl(delta_sq_norm: float, N0: float) -> float:
    """Relative entropy between equal-covariance Gaussians N(mu1, N0/2 I)
    and N(mu2, N0/2 I): ||mu1 - mu2||^2 / N0 nats."""
    _require(delta_sq_norm >= 0.0, f"squared distance must be >= 0, got {delta_sq_norm}")
    _require(N0 > 0.0, f"noise level must be positive, got {N0}")
    return delta_sq_norm / N0


class QTail(NamedTuple):
    q: float
    upper_bound: float


def normal_tail(x: float) -> QTail:
    """Standard normal tail Q(x), paired with the classical upper bound
    exp(-x^2/2)/(sqrt(2 pi) x) (infinite for x <= 0 where it is vacuous)."""
    q = 0.5 * float(erfc(x / math.sqrt(2.0)))
    if x > 0.0:
        ub = math.exp(-x * x / 2.0) / (math.sqrt(2.0 * math.pi) * x)
    else:
        ub = math.inf
    return QTail(q=q, upper_bound=ub)
