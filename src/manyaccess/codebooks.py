"""Energy-constrained codebook and signature generation.

Random codewords are truncated Gaussians: i.i.d. zero-mean entries with
per-coordinate variance E/(2*len), rejected and redrawn until the total
energy fits the cap, which realizes the normalized density
q(x) = (1/mu) 1{||x||^2 <= E} q~(x).  The truncation normalizer mu is the
chi-square probability Pr(chi2_len <= 2*len); it enters the union bounds
as (1/mu)^... factors, so it is exposed exactly, as a Chernoff lower
bound, and as a Monte Carlo estimate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegimeError

MAX_REJECTION_ROUNDS = 10**6

# Chernoff tilt at t = 1/4 for Pr(chi2 >= 2*len); strictly positive.
TAU = 1.0 - math.log(2.0)


@dataclass(frozen=True)
class Codebook:
    """M+1 codewords of a common length; index 0 is the all-zero word.
    energies[m] = ||words[m]||^2, computed here when not given."""

    M: int
    length: int
    E: float
    words: np.ndarray  # shape (M+1, length)
    energies: np.ndarray | None = None  # shape (M+1,)

    def __post_init__(self):
        if self.words.shape != (self.M + 1, self.length):
            raise ValueError("codebook array shape does not match (M+1, length)")
        if self.energies is None:
            object.__setattr__(self, "energies", _row_energies(self.words))


@dataclass(frozen=True)
class SignatureMatrix:
    """Per-user signatures as drawn: row i of `rows` is user i's signature,
    so the signature matrix S of the receivers is rows.T."""

    rows: np.ndarray  # shape (ell, n_sig)
    E_sig: float

    @property
    def ell(self) -> int:
        return self.rows.shape[0]

    @property
    def n_sig(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class MuEstimate:
    value: float
    stderr: float | None = None

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"mu must be in (0,1], got {self.value}")


def gen_truncated_gaussian(
    count: int, length: int, E: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw `count` vectors from the energy-truncated Gaussian ensemble.

    Each vector has i.i.d. N(0, E/(2*length)) coordinates, redrawn until
    ||x||^2 <= E.  Rejection terminates almost surely; a round cap guards
    against misuse (e.g. a corrupted generator).
    """
    if count < 1 or length < 1:
        raise ValueError("count and length must be >= 1")
    out = np.empty((count, length))
    _fill_truncated_gaussian(out, E, rng)
    return out


def _row_energies(rows: np.ndarray) -> np.ndarray:
    """||row||^2 of each row of a 2-D array."""
    return np.einsum("ij,ij->i", rows, rows)


def _fill_truncated_gaussian(out: np.ndarray, E: float, rng: np.random.Generator) -> np.ndarray:
    """gen_truncated_gaussian's draws, written into the rows of `out`;
    returns the rows' energies from the rejection test, bitwise
    _row_energies(out) since each row's sum does not depend on its
    neighbours."""
    if not E > 0.0:
        raise ValueError(f"energy cap must be positive, got {E}")
    count, length = out.shape
    sigma = math.sqrt(E / (2.0 * length))
    # rng.normal(0.0, sigma, size) computes 0.0 + sigma * z: same bytes, less overhead
    rng.standard_normal(out=out)
    out *= sigma
    # rows still over the cap, in increasing order: each round redraws them in that order
    energies = _row_energies(out)
    bad = (energies > E).nonzero()[0]
    rounds = 0
    while bad.size:
        rounds += 1
        if rounds > MAX_REJECTION_ROUNDS:
            raise RuntimeError(
                f"rejection sampler exceeded {MAX_REJECTION_ROUNDS} rounds "
                f"(count={count}, length={length}, E={E})"
            )
        redraw = rng.standard_normal((bad.size, length))
        redraw *= sigma
        out[bad] = redraw
        energies[bad] = redrawn = _row_energies(redraw)
        bad = bad[redrawn > E]
    return energies


def gen_codebook(M: int, length: int, E: float, rng: np.random.Generator) -> Codebook:
    """Random codebook: word 0 all-zero (inactive), words 1..M truncated
    Gaussian, drawn straight into the book."""
    if M < 2:
        raise ValueError(f"message count must be >= 2, got {M}")
    if length < 1:
        raise ValueError(f"codeword length must be >= 1, got {length}")
    words = np.empty((M + 1, length))
    words[0] = 0.0
    energies = np.zeros(M + 1)
    energies[1:] = _fill_truncated_gaussian(words[1:], E, rng)
    return Codebook(M=M, length=length, E=E, words=words, energies=energies)


def gen_signatures(
    ell: int, n_sig: int, E_sig: float, rng: np.random.Generator
) -> SignatureMatrix:
    """ell independent truncated-Gaussian signatures, the rows of an
    (ell, n_sig) array."""
    if ell < 1:
        raise ValueError(f"user count must be >= 1, got {ell}")
    return SignatureMatrix(rows=gen_truncated_gaussian(ell, n_sig, E_sig, rng), E_sig=E_sig)


def gen_ppm_codebook(M: int, slot_len: int, E: float, t: float) -> Codebook:
    """Pilot + pulse-position codebook for one slot.

    Word 0 is all-zero.  Word w (1 <= w <= M) carries sqrt(t*E) on the
    pilot coordinate (position 1) and sqrt((1-t)*E) on position w+1, so
    every nonzero word has energy exactly E and two distinct nonzero
    words overlap only on the pilot.
    """
    if M < 2:
        raise ValueError(f"message count must be >= 2, got {M}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"pilot fraction must be in (0,1), got {t}")
    if not E > 0.0:
        raise ValueError(f"energy must be positive, got {E}")
    if slot_len < M + 1:
        # the ortho scheme's regime: a slot holds the pilot and M pulse positions
        raise InvalidRegimeError(f"slot length {slot_len} < M+1 = {M + 1}")
    words = np.zeros((M + 1, slot_len))
    words[1:, 0] = math.sqrt(t * E)
    words[np.arange(1, M + 1), np.arange(1, M + 1)] = math.sqrt((1.0 - t) * E)
    return Codebook(M=M, length=slot_len, E=E, words=words)


def mu_exact(length: int) -> MuEstimate:
    """mu = Pr(chi2_length <= 2*length) via the regularized incomplete gamma."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    from scipy.special import gammainc  # deferred: trials and partitions must not load scipy.special

    return MuEstimate(value=float(gammainc(length / 2.0, float(length))))


def mu_chernoff_lb(length: int) -> MuEstimate:
    """Chernoff lower bound 1 - exp(-length*tau/2) with tau = 1 - ln 2."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return MuEstimate(value=1.0 - math.exp(-length * TAU / 2.0))


def mu_monte_carlo(length: int, trials: int, rng: np.random.Generator) -> MuEstimate:
    """Empirical acceptance rate of the raw Gaussian sampler.

    Draws standard normal vectors and counts ||z||^2 <= 2*length, which is
    distribution-identical to the energy test of gen_truncated_gaussian.
    """
    if length < 1 or trials < 1:
        raise ValueError("length and trials must be >= 1")
    hits = 0
    remaining = trials
    block = min(trials, 4_000_000 // max(length, 1) + 1)
    while remaining > 0:
        m = min(block, remaining)
        z = rng.standard_normal((m, length))
        hits += int(np.count_nonzero(np.einsum("ij,ij->i", z, z) <= 2.0 * length))
        remaining -= m
    p = hits / trials
    stderr = math.sqrt(max(p * (1.0 - p), 1e-300) / trials)
    return MuEstimate(value=p, stderr=stderr)

