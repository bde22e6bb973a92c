"""Portable seeded randomness.

All simulation randomness flows through Philox4x64-10, a counter-based
generator whose raw stream is fully determined by a 64-bit key.
Substreams are derived by a SplitMix64 hash of (seed, index path): a
trial's stream from (master seed, trial index), and user i's codebook
within a trial from (codebook key, i), the key being one 64-bit word of
the trial stream.  Any run is therefore reproducible from the master
seed alone.  A generator may be re-keyed in place to another 64-bit
key, which costs far less than building a new one and gives the same
bytes; thread_rng keeps one such generator per thread and name.
Conformance of both pieces is pinned by test vectors in
tests/test_rng.py.
"""

import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 step: returns the output word for the given state."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit substream seed from a master seed and index path.

    Each index is folded in with one SplitMix64 step, so substreams for
    different index tuples are statistically independent.
    """
    s = splitmix64(master_seed & _MASK64)
    for ix in indices:
        s = splitmix64((s ^ ((ix + 1) * _GOLDEN)) & _MASK64)
    return s


def make_rng(seed: int) -> np.random.Generator:
    """Generator backed by Philox keyed directly with the 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def substream(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator for the substream addressed by the given index path."""
    return make_rng(mix_seed(master_seed, *indices))


def rekey(rng: np.random.Generator, seed: int) -> np.random.Generator:
    """Reset a make_rng generator in place to the stream of make_rng(seed):
    the key, a zero counter and an empty output buffer.  Returns rng."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


_LOCAL = threading.local()


def thread_rng(name: str, seed: int) -> np.random.Generator:
    """make_rng(seed)'s stream on the generator this thread keeps as `name`,
    re-keyed in place: building a generator costs several re-keys, most of
    it in code a trial has pushed out of the caches.  The stream is valid
    until this thread next asks for `name`."""
    generators = _LOCAL.__dict__
    if name not in generators:
        generators[name] = make_rng(seed)
    return rekey(generators[name], seed)
