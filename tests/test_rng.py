"""Conformance vectors for the portable RNG layer.

Any implementation reproducing these vectors generates identical
simulation streams; splitmix64(0) matches the published SplitMix64
reference output.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from manyaccess.rng import make_rng, mix_seed, rekey, splitmix64, substream, thread_rng

SPLITMIX64_VECTORS = {
    0x0000000000000000: 0xE220A8397B1DCDAF,
    0x0000000000000001: 0x910A2DEC89025CC1,
    0x123456789ABCDEF0: 0x161922C645CE50E8,
    0xFFFFFFFFFFFFFFFF: 0xE4D971771B652C20,
}

MIX_SEED_VECTORS = {
    (0, (0,)): 0x7D91D4C3FE86F0DE,
    (0, (1,)): 0x8249D16640921B3E,
    (42, (0,)): 0xB18D344888AE5F83,
    (42, (7, 3)): 0x52C0D9B01FAD09E0,
}

PHILOX_RAW_VECTORS = {
    0x0: (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC),
    0x1: (0x4DB6A27B756282DF, 0xD944FA03BABE0E2F, 0x27F872E577060D32, 0x07F697696A0482A2),
    0xDEADBEEF: (0xA4E930DC738ACAF1, 0xB1C7ECC6484E9CF0, 0x6B88A411909298AA, 0x66F3C896201F7262),
}


def test_splitmix64_vectors():
    for state, expected in SPLITMIX64_VECTORS.items():
        assert splitmix64(state) == expected


def test_mix_seed_vectors():
    for (master, indices), expected in MIX_SEED_VECTORS.items():
        assert mix_seed(master, *indices) == expected


def test_philox_raw_vectors():
    for key, expected in PHILOX_RAW_VECTORS.items():
        raw = np.random.Philox(key=key).random_raw(4)
        assert tuple(int(x) for x in raw) == expected


def test_substreams_are_distinct_and_reproducible():
    a1 = substream(99, 0).standard_normal(8)
    a2 = substream(99, 0).standard_normal(8)
    b = substream(99, 1).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_make_rng_streams_match_for_equal_seeds():
    assert np.array_equal(make_rng(7).random(16), make_rng(7).random(16))


def test_rekey_gives_the_bytes_of_a_fresh_generator():
    # whatever the generator drew before (whole words, a buffered half
    # word, normals), re-keying restarts it at make_rng(seed)'s stream
    rng = make_rng(1)
    for i, seed in enumerate([0, 5, mix_seed(3, 2), (1 << 64) - 1, 1 << 64]):
        rng.integers(0, 1 << 32, size=i + 1, dtype=np.uint32)
        rng.standard_normal(i)
        assert rekey(rng, seed) is rng
        assert rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tobytes() == (
            make_rng(seed).integers(0, 1 << 32, size=3, dtype=np.uint32).tobytes())
        rekey(rng, seed)
        assert rng.standard_normal(9).tobytes() == make_rng(seed).standard_normal(9).tobytes()


def test_thread_rng_streams_are_per_thread():
    # four threads on two cores, switching every microsecond, each re-key
    # and draw at once: a generator shared across threads would hand one
    # thread another's stream
    def draws_match(base):
        rng = thread_rng("test", base)
        for seed in range(base, base + 300):
            assert thread_rng("test", seed) is rng
            if rng.standard_normal(8).tobytes() != make_rng(seed).standard_normal(8).tobytes():
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(draws_match, range(0, 4000, 1000), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 4

