import math

import numpy as np
import pytest

from manyaccess.codebooks import (
    TAU,
    gen_codebook,
    gen_ppm_codebook,
    gen_signatures,
    gen_truncated_gaussian,
    mu_chernoff_lb,
    mu_exact,
    mu_monte_carlo,
)
from manyaccess.rng import make_rng, substream


class TestTruncatedGaussian:
    def test_energy_cap_always_met(self):
        vecs = gen_truncated_gaussian(200, 16, 3.0, make_rng(0))
        assert (np.einsum("ij,ij->i", vecs, vecs) <= 3.0 + 1e-12).all()

    def test_seed_determinism(self):
        a = gen_truncated_gaussian(10, 8, 2.0, make_rng(5))
        b = gen_truncated_gaussian(10, 8, 2.0, make_rng(5))
        assert np.array_equal(a, b)

    def test_raw_acceptance_rate_len2(self):
        # acceptance of the untruncated sampler ~ mu = 1 - e^-2 at len 2
        rng = make_rng(11)
        trials = 10**6
        z = rng.standard_normal((trials, 2)) * math.sqrt(2.0 / (2 * 2))
        rate = (np.einsum("ij,ij->i", z, z) <= 2.0).mean()
        mu = 1.0 - math.exp(-2.0)
        sigma = math.sqrt(mu * (1 - mu) / trials)
        assert abs(rate - mu) <= 3 * sigma


def _normal_reference(count, length, E, rng):
    """The sampler drawn with rng.normal, plus its rejection-round count."""
    sigma = math.sqrt(E / (2.0 * length))
    out = rng.normal(0.0, sigma, size=(count, length))
    bad = np.einsum("ij,ij->i", out, out) > E
    rounds = 0
    while bad.any():
        rounds += 1
        redraw = rng.normal(0.0, sigma, size=(int(bad.sum()), length))
        out[bad] = redraw
        bad_idx = np.flatnonzero(bad)
        bad = np.zeros(count, dtype=bool)
        bad[bad_idx[np.einsum("ij,ij->i", redraw, redraw) > E]] = True
    return out, rounds


@pytest.mark.parametrize("count,length", [(10, 2048), (10, 3), (16, 8), (4, 1)])
def test_draws_match_normal_reference_bytes(count, length):
    rounds = 0
    for seed in range(20):
        ref, r = _normal_reference(count, length, 3.0, make_rng(seed))
        rounds += r
        book = gen_codebook(count, length, 3.0, make_rng(seed))
        assert book.words[1:].tobytes() == ref.tobytes()
        sigs = gen_signatures(count, length, 3.0, make_rng(seed))
        assert sigs.matrix.tobytes() == ref.T.copy().tobytes()
        assert sigs.matrix.T.flags.c_contiguous  # the rows as drawn, not a copy
    if length <= 8:
        assert rounds > 0  # the redraw path ran


def _two_step_reference(count, length, E, rng):
    """The sampler as first written: a fresh array of standard normals times
    sigma, each round's redraws likewise, then copied into a zeroed book."""
    sigma = math.sqrt(E / (2.0 * length))
    out = rng.standard_normal((count, length)) * sigma
    bad = np.flatnonzero(np.einsum("ij,ij->i", out, out) > E)
    rounds = 0
    while bad.size:
        rounds += 1
        redraw = rng.standard_normal((bad.size, length)) * sigma
        out[bad] = redraw
        bad = bad[np.einsum("ij,ij->i", redraw, redraw) > E]
    words = np.zeros((count + 1, length))
    words[1:] = out
    return words, rounds


@pytest.mark.parametrize("length", [1, 2, 3])
def test_in_place_draws_match_two_step_bytes(length):
    # at these lengths a word is over the cap 11-16% of the time, so the
    # redraw rounds run in most books
    rounds = 0
    for seed in range(40):
        count = 2 + seed % 11
        ref, r = _two_step_reference(count, length, 1.5, make_rng(seed))
        rounds += r
        assert gen_codebook(count, length, 1.5, make_rng(seed)).words.tobytes() == ref.tobytes()
        sigs = gen_signatures(count, length, 1.5, make_rng(seed))
        assert sigs.matrix.tobytes() == ref[1:].T.copy().tobytes()
    assert rounds >= 20


@pytest.mark.parametrize("length", [1, 3, 2048, 10000])
def test_book_energies_are_the_row_energies(length):
    # the energies kept from the rejection test, redrawn rows included,
    # are bitwise the squared norms of the finished words
    for seed in range(10):
        book = gen_codebook(2 + seed, length, 1.5, make_rng(seed))
        assert book.energies.tobytes() == np.einsum("ij,ij->i", book.words, book.words).tobytes()
    ppm = gen_ppm_codebook(4, 6, 2.0, 0.3)
    assert ppm.energies.tobytes() == np.einsum("ij,ij->i", ppm.words, ppm.words).tobytes()


class TestCodebook:
    def test_zero_word_and_caps(self):
        cb = gen_codebook(8, 32, 5.0, make_rng(1))
        assert (cb.words[0] == 0).all()
        energies = np.einsum("ij,ij->i", cb.words, cb.words)
        assert (energies <= 5.0 + 1e-12).all()

    def test_distinct_seeds_differ(self):
        a = gen_codebook(4, 16, 2.0, make_rng(1))
        b = gen_codebook(4, 16, 2.0, make_rng(2))
        assert not np.array_equal(a.words, b.words)


class TestSignatures:
    def test_columns_meet_cap(self):
        sm = gen_signatures(12, 64, 4.0, make_rng(3))
        assert sm.matrix.shape == (64, 12)
        energies = np.einsum("ij,ij->j", sm.matrix, sm.matrix)
        assert (energies <= 4.0 + 1e-12).all()

    def test_single_column(self):
        sm = gen_signatures(1, 16, 1.0, make_rng(4))
        assert sm.matrix.shape == (16, 1)

    def test_gram_off_diagonals_concentrate(self):
        # mean |<s_i, s_j>| over 100 seeds stays under 3 E_sig / sqrt(n_sig)
        ell, n_sig, E_sig = 12, 64, 4.0
        vals = []
        for seed in range(100):
            sm = gen_signatures(ell, n_sig, E_sig, substream(1234, seed))
            gram = sm.matrix.T @ sm.matrix
            off = gram[~np.eye(ell, dtype=bool)]
            vals.append(np.abs(off).mean())
        assert np.mean(vals) <= 3.0 * E_sig / math.sqrt(n_sig)


class TestPpmCodebook:
    def test_size_error(self):
        # slot must hold the pilot plus M message positions: slot >= M+1
        with pytest.raises(ValueError):
            gen_ppm_codebook(4, 4, 4.0, 0.25)
        with pytest.raises(ValueError):
            gen_ppm_codebook(3, 3, 4.0, 0.25)

    def test_minimal_slot_is_valid(self):
        # slot = M+1 is the canonical construction (M messages + pilot)
        cb = gen_ppm_codebook(3, 4, 4.0, 0.25)
        assert cb.words.shape == (4, 4)

    def test_worked_example_word(self):
        cb = gen_ppm_codebook(2, 4, 4.0, 0.25)
        assert np.allclose(cb.words[1], [1.0, math.sqrt(3.0), 0.0, 0.0])
        assert np.allclose(cb.words[2], [1.0, 0.0, math.sqrt(3.0), 0.0])

    def test_exact_energy_and_pilot_overlap(self):
        M, E, t = 5, 7.0, 0.3
        cb = gen_ppm_codebook(M, M + 1, E, t)
        energies = np.einsum("ij,ij->i", cb.words[1:], cb.words[1:])
        assert energies == pytest.approx(np.full(M, E), rel=1e-12)
        for w in range(1, M + 1):
            for w2 in range(w + 1, M + 1):
                assert cb.words[w] @ cb.words[w2] == pytest.approx(t * E, rel=1e-12)
                # orthogonal once the shared pilot coordinate is removed
                assert cb.words[w][1:] @ cb.words[w2][1:] == 0.0


class TestMu:
    def test_exact_len2_closed_form(self):
        assert mu_exact(2).value == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_tau_constant(self):
        assert TAU == pytest.approx(1.0 - math.log(2.0), rel=1e-15)
        assert TAU > 0

    def test_chernoff_len2(self):
        assert mu_chernoff_lb(2).value == pytest.approx(0.2642411, abs=1e-7)
        assert mu_chernoff_lb(2).value <= mu_exact(2).value

    def test_chernoff_below_exact_everywhere(self):
        for length in range(1, 513):
            assert mu_chernoff_lb(length).value <= mu_exact(length).value

    def test_exact_increasing(self):
        # strictly increasing until float64 saturates the value at 1.0
        # (around length 210); never decreasing anywhere on the grid
        vals = [mu_exact(length).value for length in range(1, 513)]
        assert all(b > a for a, b in zip(vals[:200], vals[1:200]))
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)
        assert mu_exact(100).value > mu_exact(10).value

    def test_monte_carlo_matches_exact(self):
        for length in (2, 8, 32):
            est = mu_monte_carlo(length, 200_000, substream(42, length))
            exact = mu_exact(length).value
            assert abs(est.value - exact) <= 3 * est.stderr

    @pytest.mark.parametrize(
        "length, bits",
        [(1, "0x1.af767a741088dp-1"), (7, "0x1.e5cb8ec1da0b2p-1"), (128, "0x1.fffffffec5696p-1")],
    )
    def test_exact_bits_pinned(self, length, bits):
        # scipy.special.gammainc to the last bit; another implementation
        # would move the bounds that use mu
        assert mu_exact(length).value.hex() == bits

    def test_rejects_len_zero(self):
        with pytest.raises(ValueError):
            mu_chernoff_lb(0)
        with pytest.raises(ValueError):
            mu_exact(0)
