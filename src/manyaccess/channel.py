"""Superposition AWGN channel with random user activity.

The received word is Y = sum_i x_i(w_i) + Z with Z_j ~ N(0, N0/2).
Inactive users (w_i = 0) contribute the all-zero word.  Joint-scheme
codewords are (signature, message codeword) concatenations; orthogonal
transmission places each user's pilot+PPM word in its own slot.
Joint trials draw their message codebooks beside detection on one helper
thread per process, a one-worker ThreadPoolExecutor shared by every
thread that runs trials.
"""

import contextlib
import math
import os
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebooks import Codebook, SignatureMatrix, gen_codebook, gen_ppm_codebook, gen_signatures
from .model import EnergySchedule, SystemParams
from .rng import mix_seed, thread_rng


def _start_helper() -> None:
    """Make _HELPER, the process's one book helper, whose thread starts with
    its first job: at import, and in a forked child, which inherits the
    parent's executor but not its thread."""
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="books")


_start_helper()
os.register_at_fork(after_in_child=_start_helper)


class UserCodebooks(Sequence):
    """Read-only per-user message codebooks, each drawn at most once.

    User i's book is gen_codebook(M, length, E, substream(key, i)), so its
    bytes do not depend on which other books are read, in what order, or
    on which thread.  Each book is drawn on the drawing thread's "books"
    generator re-keyed to mix_seed(key, i) (rng.thread_rng), which gives
    substream(key, i)'s bytes without building a generator.  Inside
    `drawing`, books are queued on the process's one helper thread, which
    draws them while the caller works on; reading a book the helper has
    not started takes it back and draws it on the reader instead, and
    reading one it has started waits for it.  A book never queued, or
    refused by a helper that is shutting down, is drawn when first read.
    Every draw looks up channel.gen_codebook and channel.mix_seed when it
    runs, whichever thread runs it.
    """

    def __init__(self, ell: int, M: int, length: int, E: float, key: int):
        self.M, self.length, self.E, self.key = M, length, E, key
        self._books: list[Codebook | Future | None] = [None] * ell
        self._queued: list[int] = []  # users in the order their books were queued

    def __len__(self) -> int:
        return len(self._books)

    def __getitem__(self, i: int) -> Codebook:
        i = range(len(self._books))[i]  # IndexError past the end; -1 is the last user
        book = self._books[i]
        if not isinstance(book, Codebook):
            book = self._books[i] = self._draw(i) if book is None else self._collect(i, book)
        return book

    def _collect(self, i: int, job: Future) -> Codebook:
        """Queued book i: taken back and drawn here if the helper has not
        started it, else waited for.  A failed helper draw raises on every
        read; a failed draw here leaves the book to the next read."""
        return self._draw(i) if job.cancel() else job.result()

    def _draw(self, i: int) -> Codebook:
        rng = thread_rng("books", mix_seed(self.key, i))
        return gen_codebook(self.M, self.length, self.E, rng)

    def _queue(self, users) -> None:
        for i in users:
            i = range(len(self._books))[i]  # an int, checked as a read checks it
            if self._books[i] is None:
                with contextlib.suppress(RuntimeError):  # refused at exit: drawn when read
                    self._books[i] = _HELPER.submit(self._draw, i)
                    self._queued.append(i)

    def draw(self, users) -> None:
        """Have the books of `users` drawn, by the helper and this thread
        together: queue those never queued but the last, then read from
        the back, so this thread draws the last at once and takes back
        what the helper, working from the front, has not started.  Every
        book is read, and so every queued draw of `users` has ended, before
        the first failed draw raises."""
        users = set(users)
        new = [i for i in sorted(users) if self._books[i] is None]
        self._queue(new[:-1])
        error = None
        for i in new[-1:] + self._queued[::-1]:
            if i in users:
                try:
                    self[i]
                except BaseException as e:  # the other books are still read
                    error = error or e
        if error is not None:
            raise error

    @contextlib.contextmanager
    def drawing(self, users):
        """Queue the books of `users` on the helper for the body of the
        `with`.  Every queued book is read when the body ends, however it
        ends, so no draw outlives the body, and a failed draw raises there,
        over any error of the body, as a read before the body would have."""
        try:
            self._queue(users)
            yield self
        finally:
            self.draw(self._queued)


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


def transmit_joint(plan: JointPlan, msgs: np.ndarray, block: str) -> np.ndarray:
    """One block of the clean superposed signal sum_i (s_i, x~_i(w_i)) over
    active users: "signatures" is S d, "messages" is 0 plus the active
    users' words in user order, the only block that reads books."""
    if len(msgs) != plan.ell:
        raise ValueError(f"message vector length {len(msgs)} != ell {plan.ell}")
    if block not in ("signatures", "messages"):
        raise ValueError(f"unknown block {block!r}")
    active = np.asarray(msgs) != 0
    if block == "signatures":
        rows = plan.signatures.rows
        return np.matmul(active.astype(float), rows, out=np.empty(rows.shape[1]))  # S d
    out = np.zeros(plan.n_msg)
    for i in active.nonzero()[0]:
        out += plan.codebooks[i].words[msgs[i]]
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
    if not math.isfinite(N0):
        raise ValueError(f"noise level must be finite, got {N0}")
    if N0 == 0.0:
        return np.array(signal, copy=True)
    out = rng.standard_normal(len(signal))
    out *= np.sqrt(N0 / 2.0)
    out += signal
    return out
