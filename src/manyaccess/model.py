"""Global system parameters, energy schedules, and message sampling.

Conventions: all logarithms and entropies are in nats; rates per unit
energy are nats per unit energy (divide by ln 2 for bits).  Noise has
per-coordinate variance N0/2.  The mean active-user count k = alpha*ell
is carried as a real number; integer caps take floors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegimeError


def binary_entropy(p: float) -> float:
    """Binary entropy -p ln p - (1-p) ln(1-p) in nats, with 0 ln 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability outside [0,1]: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


# _LOG1P_SUMS[n][k] = sum_{i<k} log1p(-i/n): log_binomial's running sums,
# shared by every k of one n, since a decode budget asks for C(k', j) at
# every j.  A kept list is never changed, only replaced by a longer one;
# every kept list is a correct prefix, so threads growing the same n at
# once only repeat work.
_LOG1P_SUMS: dict[int, list[float]] = {}
_LOG1P_SUMS_KEPT = 256  # distinct n; past it the sums start afresh


def _log1p_sum(n: int, k: int) -> float:
    """sum_{i<k} log1p(-i/n), added in order of i, for 0 <= k <= n // 2.
    The kept sums at least double when they grow, so all the k of one n
    cost O(max k) log1p calls."""
    sums = _LOG1P_SUMS.get(n, [0.0])
    if k >= len(sums):
        sums = sums.copy()
        for i in range(len(sums) - 1, max(k, min(2 * len(sums), n // 2 + 1) - 1)):
            sums.append(sums[-1] + math.log1p(-i / n))
        if len(_LOG1P_SUMS) >= _LOG1P_SUMS_KEPT:
            _LOG1P_SUMS.clear()
        _LOG1P_SUMS[n] = sums
    return sums[k]


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) = k ln n + sum_{i<k} log1p(-i/n) - ln k!, with k taken as
    min(k, n - k).  No two large terms cancel, so the result keeps about
    k ulps of ln n however large n is.  The sum is added in order of i
    and shared across k (_log1p_sum): O(min(k, n - k)) for the first k
    of an n, O(1) for a smaller one."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k = {k}, n = {n}")
    k = min(k, n - k)
    if k == 0:  # also n = 0, where ln n is undefined
        return 0.0
    return k * math.log(n) + _log1p_sum(n, k) - math.lgamma(k + 1)


def activity_logpmf(j: int, ell: int, alpha: float) -> float:
    """ln Pr{exactly j of ell users active}: the Binomial(ell, alpha) law
    of sample_messages, -inf where the probability is 0 (alpha of 0 or 1
    puts all mass on j = 0 or j = ell)."""
    if alpha >= 1.0:
        return 0.0 if j == ell else -math.inf
    if alpha <= 0.0:
        return 0.0 if j == 0 else -math.inf
    return log_binomial(ell, j) + j * math.log(alpha) + (ell - j) * math.log1p(-alpha)


@dataclass(frozen=True)
class SystemParams:
    """Blocklength, user count, activity probability, and noise level."""

    n: int
    ell: int
    alpha: float
    N0: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.n}")
        if self.ell < 1:
            raise ValueError(f"user count must be >= 1, got {self.ell}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"activity probability must be in (0,1], got {self.alpha}")
        if not (self.N0 > 0.0 and math.isfinite(self.n * self.N0)):
            # n*N0/2 is the block's mean noise energy, which the receivers square-sum
            raise ValueError(f"noise level must be positive with n*N0 finite, got {self.N0}")

    @property
    def k(self) -> float:
        """Mean number of active users alpha*ell."""
        return self.alpha * self.ell


@dataclass(frozen=True)
class EnergySchedule:
    """Per-user energy budget and its signature/message (or pilot/message) split.

    For the joint scheme n_sig + n_msg = n.  For the orthogonal scheme the
    per-slot convention is n_sig = 1 (the pilot symbol) and n_msg = slot - 1,
    where slot = n // ell channel uses are assigned to each user.
    """

    E: float
    split: float
    c: float
    n_sig: int
    n_msg: int
    E_sig: float
    E_msg: float

    def __post_init__(self):
        if not 0.0 < self.E < math.inf:
            raise ValueError(f"total energy must be positive and finite, got {self.E}")
        if min(self.E_sig, self.E_msg, self.n_sig, self.n_msg) < 0:
            raise ValueError("schedule components must be nonnegative")


def make_joint_schedule(params: SystemParams, b: float) -> EnergySchedule:
    """Signature/message split for the non-orthogonal two-phase scheme.

    Uses c = ln(n / (k ln ell)) and total energy E = c ln ell, with a
    fraction b of both channel uses and energy spent on signatures.
    n_sig = floor(b*n); the energy split is exact (E_sig + E_msg == E).
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"split fraction must be in (0,1), got {b}")
    if params.ell < 2:
        raise InvalidRegimeError("joint schedule needs ell >= 2")
    k_log_ell = params.k * math.log(params.ell)
    if k_log_ell >= params.n:
        raise InvalidRegimeError(
            f"k*ln(ell) = {k_log_ell:.4g} >= n = {params.n}: outside the sublinear regime"
        )
    c = math.log(params.n / k_log_ell)
    E_total = c * math.log(params.ell)
    n_sig = math.floor(b * params.n)
    E_sig = b * E_total
    E_msg = E_total - E_sig
    # store E as the sum of its parts so the split identity is exact
    return EnergySchedule(
        E=E_sig + E_msg,
        split=b,
        c=c,
        n_sig=n_sig,
        n_msg=params.n - n_sig,
        E_sig=E_sig,
        E_msg=E_msg,
    )


def make_ortho_schedule(params: SystemParams, t: float) -> EnergySchedule:
    """Pilot/message split for the orthogonal (slotted) scheme.

    Uses c = ln(n / (ell ln n)) and total energy E = c ln n; a fraction t
    of the energy goes to the pilot symbol.  Each user's slot has
    n // ell channel uses and must hold the pilot plus at least one
    message symbol.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"pilot fraction must be in (0,1), got {t}")
    slot = params.n // params.ell
    if slot < 2:
        raise InvalidRegimeError(f"slot length {slot} < 2: no room for pilot + message")
    ell_log_n = params.ell * math.log(params.n)
    if ell_log_n >= params.n:
        raise InvalidRegimeError(
            f"ell*ln(n) = {ell_log_n:.4g} >= n = {params.n}: orthogonal access needs ell*ln(n) < n"
        )
    c = math.log(params.n / ell_log_n)
    E_total = c * math.log(params.n)
    E_sig = t * E_total
    E_msg = E_total - E_sig
    return EnergySchedule(
        E=E_sig + E_msg,
        split=t,
        c=c,
        n_sig=1,
        n_msg=slot - 1,
        E_sig=E_sig,
        E_msg=E_msg,
    )


def single_user_capacity_pue(N0: float) -> float:
    """Single-user capacity per unit energy, 1/N0 nats."""
    if N0 <= 0.0:
        raise ValueError(f"noise level must be positive, got {N0}")
    return 1.0 / N0


@dataclass(frozen=True)
class RateSpec:
    """Messages per active user and the matching rate per unit energy (nats)."""

    M: int
    R_dot: float

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"message count must be >= 2, got {self.M}")
        if self.R_dot <= 0.0:
            raise ValueError(f"rate must be positive, got {self.R_dot}")

    @classmethod
    def from_message_count(cls, M: int, E: float) -> "RateSpec":
        return cls(M=M, R_dot=math.log(M) / E)

    @classmethod
    def from_rate(cls, R_dot: float, E: float) -> "RateSpec":
        """Round exp(R_dot*E) to the nearest integer M >= 2; the stored
        rate is the effective ln(M)/E after rounding."""
        M = max(2, round(math.exp(R_dot * E)))
        return cls(M=M, R_dot=math.log(M) / E)


def sample_messages(params: SystemParams, M: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one message per user: 0 (inactive) w.p. 1-alpha, else uniform on 1..M."""
    if M < 2:
        raise ValueError(f"message count must be >= 2, got {M}")
    active = rng.random(params.ell) < params.alpha
    msgs = rng.integers(1, M + 1, size=params.ell)
    return np.where(active, msgs, 0)
