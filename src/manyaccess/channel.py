"""Superposition AWGN channel with random user activity.

The received word is Y = sum_i x_i(w_i) + Z with Z_j ~ N(0, N0/2).
Inactive users (w_i = 0) contribute the all-zero word.  Joint-scheme
codewords are (signature, message codeword) concatenations; orthogonal
transmission places each user's pilot+PPM word in its own slot.
"""

from dataclasses import dataclass

import numpy as np

from .codebooks import Codebook, SignatureMatrix, gen_codebook, gen_ppm_codebook, gen_signatures
from .model import EnergySchedule, SystemParams


@dataclass(frozen=True)
class JointPlan:
    """Per-user signature columns and independently drawn message codebooks."""

    ell: int
    M: int
    codebooks: tuple[Codebook, ...]
    signatures: SignatureMatrix

    def __post_init__(self):
        if self.signatures.ell != self.ell or len(self.codebooks) != self.ell:
            raise ValueError("need one signature column and one codebook per user")


@dataclass(frozen=True)
class OrthoPlan:
    """Slotted code: every user reuses the deterministic `codebooks[0]` PPM
    book in its own slot of `slot_len` channel uses (user i owns
    [i*slot_len, (i+1)*slot_len)); trailing channel uses stay idle."""

    ell: int
    M: int
    codebooks: tuple[Codebook, ...]
    slot_len: int

    def __post_init__(self):
        if len(self.codebooks) != 1:
            raise ValueError("ortho plan needs a single shared codebook")


def make_joint_plan(
    params: SystemParams, sched: EnergySchedule, M: int, rng: np.random.Generator
) -> JointPlan:
    """Fresh random signatures and independent per-user message codebooks."""
    sigs = gen_signatures(params.ell, sched.n_sig, sched.E_sig, rng)
    books = tuple(gen_codebook(M, sched.n_msg, sched.E_msg, rng) for _ in range(params.ell))
    return JointPlan(ell=params.ell, M=M, codebooks=books, signatures=sigs)


def make_ortho_plan(params: SystemParams, sched: EnergySchedule, M: int) -> OrthoPlan:
    """Deterministic pilot+PPM plan; each user gets n // ell channel uses."""
    slot = params.n // params.ell
    book = gen_ppm_codebook(M, slot, sched.E, sched.split)
    return OrthoPlan(ell=params.ell, M=M, codebooks=(book,), slot_len=slot)


def transmit_joint(plan: JointPlan, msgs: np.ndarray) -> np.ndarray:
    """Clean superposed signal sum_i (s_i, x~_i(w_i)) over active users."""
    if len(msgs) != plan.ell:
        raise ValueError(f"message vector length {len(msgs)} != ell {plan.ell}")
    d = (np.asarray(msgs) != 0).astype(float)
    sig_part = plan.signatures.matrix @ d
    msg_part = np.zeros(plan.codebooks[0].length)
    for i in np.flatnonzero(d):
        msg_part += plan.codebooks[i].words[msgs[i]]
    return np.concatenate([sig_part, msg_part])


def transmit_ortho(plan: OrthoPlan, msgs: np.ndarray) -> np.ndarray:
    """Clean slotted signal; user i's slot holds its PPM word (zero if inactive)."""
    if len(msgs) != plan.ell:
        raise ValueError(f"message vector length {len(msgs)} != ell {plan.ell}")
    slot = plan.slot_len
    book = plan.codebooks[0]
    signal = np.zeros(plan.ell * slot)
    for i, w in enumerate(msgs):
        if w != 0:
            signal[i * slot : (i + 1) * slot] = book.words[w]
    return signal


def awgn(signal: np.ndarray, N0: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. N(0, N0/2) noise; N0 = 0 passes the signal through (tests)."""
    if N0 < 0.0:
        raise ValueError(f"noise level must be >= 0, got {N0}")
    if N0 == 0.0:
        return np.array(signal, copy=True)
    return signal + rng.standard_normal(len(signal)) * np.sqrt(N0 / 2.0)
