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
from .rng import mix_seed, thread_rng


class UserCodebooks(Sequence):
    """Read-only per-user message codebooks, each drawn when first read.

    User i's book is gen_codebook(M, length, E, substream(key, i)), so its
    bytes do not depend on which other books are read, or in what order.
    Each book is drawn on the thread's "books" generator re-keyed to
    mix_seed(key, i) (rng.thread_rng), which gives substream(key, i)'s
    bytes without building a generator.  A built book is cached; a plan
    never leaves its trial, so the cache needs no lock.
    """

    def __init__(self, ell: int, M: int, length: int, E: float, key: int):
        self.M, self.length, self.E, self.key = M, length, E, key
        self._books: list[Codebook | None] = [None] * ell

    def __len__(self) -> int:
        return len(self._books)

    def __getitem__(self, i: int) -> Codebook:
        i = range(len(self._books))[i]  # IndexError past the end; -1 is the last user
        if self._books[i] is None:
            rng = thread_rng("books", mix_seed(self.key, i))
            self._books[i] = gen_codebook(self.M, self.length, self.E, rng)
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
    """Slotted code: every user reuses the deterministic PPM `book` in its
    own slot of `slot_len` channel uses (user i owns
    [i*slot_len, (i+1)*slot_len)); trailing channel uses stay idle."""

    ell: int
    M: int
    book: Codebook
    slot_len: int


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
    return OrthoPlan(ell=params.ell, M=M, book=book, slot_len=slot)


def transmit_joint(plan: JointPlan, msgs: np.ndarray) -> np.ndarray:
    """Clean superposed signal sum_i (s_i, x~_i(w_i)) over active users."""
    if len(msgs) != plan.ell:
        raise ValueError(f"message vector length {len(msgs)} != ell {plan.ell}")
    active = np.asarray(msgs) != 0
    rows = plan.signatures.matrix.T  # (ell, n_sig): the signatures as drawn
    n_sig = rows.shape[1]
    out = np.zeros(n_sig + plan.n_msg)
    np.matmul(active.astype(float), rows, out=out[:n_sig])  # S d
    for i in active.nonzero()[0]:
        out[n_sig:] += plan.codebooks[i].words[msgs[i]]
    return out


def transmit_ortho(plan: OrthoPlan, msgs: np.ndarray) -> np.ndarray:
    """Clean slotted signal: row i of the (ell, slot) table is user i's PPM
    word, the all-zero word 0 if inactive."""
    if len(msgs) != plan.ell:
        raise ValueError(f"message vector length {len(msgs)} != ell {plan.ell}")
    return plan.book.words[msgs].ravel()


def awgn(signal: np.ndarray, N0: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. N(0, N0/2) noise; N0 = 0 passes the signal through (tests)."""
    if N0 < 0.0:
        raise ValueError(f"noise level must be >= 0, got {N0}")
    if N0 == 0.0:
        return np.array(signal, copy=True)
    out = rng.standard_normal(len(signal))
    out *= np.sqrt(N0 / 2.0)
    out += signal
    return out
