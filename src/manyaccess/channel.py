"""Superposition AWGN channel with random user activity.

The received word is Y = sum_i x_i(w_i) + Z with Z_j ~ N(0, N0/2).
Inactive users (w_i = 0) contribute the all-zero word.  Joint-scheme
codewords are (signature, message codeword) concatenations; orthogonal
transmission places each user's pilot+PPM word in its own slot.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codebooks import Codebook, SignatureMatrix, gen_codebook, gen_ppm_codebook, gen_signatures
from .model import EnergySchedule, SystemParams
from .rng import substream


class UserCodebooks(Sequence):
    """Read-only per-user message codebooks, each drawn when first read.

    User i's book is gen_codebook(M, length, E, substream(key, i)), so its
    bytes do not depend on which other books are read, or in what order.
    A built book is cached; a plan never leaves its trial, so the cache
    needs no lock.
    """

    def __init__(self, ell: int, M: int, length: int, E: float, key: int):
        self.M, self.length, self.E, self.key = M, length, E, key
        self._books: list[Codebook | None] = [None] * ell

    def __len__(self) -> int:
        return len(self._books)

    def __getitem__(self, i: int) -> Codebook:
        i = range(len(self._books))[i]  # IndexError past the end; -1 is the last user
        if self._books[i] is None:
            self._books[i] = gen_codebook(self.M, self.length, self.E, substream(self.key, i))
        return self._books[i]


@dataclass(frozen=True)
class JointPlan:
    """Per-user signature columns and independently drawn message codebooks
    of block length n_msg."""

    ell: int
    M: int
    codebooks: Sequence[Codebook]
    signatures: SignatureMatrix
    n_msg: int

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
    """Fresh random signatures from `rng`, then one 64-bit key from `rng`
    that addresses the per-user codebook substreams (see UserCodebooks)."""
    sigs = gen_signatures(params.ell, sched.n_sig, sched.E_sig, rng)
    key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    books = UserCodebooks(params.ell, M, sched.n_msg, sched.E_msg, key)
    return JointPlan(ell=params.ell, M=M, codebooks=books, signatures=sigs, n_msg=sched.n_msg)


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
    msg_part = np.zeros(plan.n_msg)
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
