import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from manyaccess import channel
from manyaccess.channel import awgn, make_joint_plan, make_ortho_plan, transmit_joint, transmit_ortho
from manyaccess.codebooks import gen_codebook, gen_signatures
from manyaccess.decoding import BoundParams
from manyaccess.harness import ExperimentConfig, run_trial
from manyaccess.model import SystemParams, make_joint_schedule, make_ortho_schedule
from manyaccess.rng import make_rng, substream

# one joint trial, run at exit by a fresh interpreter: its record's repr
ATEXIT_TRIAL = textwrap.dedent("""
    import atexit, sys
    from manyaccess.decoding import BoundParams
    from manyaccess.harness import ExperimentConfig, run_trial
    from manyaccess.model import SystemParams

    cfg = ExperimentConfig(scheme="joint", params=SystemParams(n=512, ell=8, alpha=0.25, N0=2.0),
                           split=0.5, M=4, bp=BoundParams(xi=8), trials=40, master_seed=2024)
    index = int(sys.argv[1])
    run_trial(cfg, index)  # the helper's thread is up when the interpreter exits
    atexit.register(lambda: print(repr(run_trial(cfg, index))))
""")


@pytest.fixture
def joint_setup():
    params = SystemParams(n=256, ell=6, alpha=0.5, N0=2.0)
    sched = make_joint_schedule(params, 0.5)
    plan = make_joint_plan(params, sched, 4, make_rng(10))
    return params, sched, plan


@pytest.fixture
def ortho_setup():
    params = SystemParams(n=64, ell=2, alpha=0.5, N0=2.0)
    sched = make_ortho_schedule(params, 0.25)
    plan = make_ortho_plan(params, sched, 2)
    return params, sched, plan


def transmit_both(plan, msgs):
    """The whole clean word: transmit_joint's signature block, then its message block."""
    return np.concatenate([transmit_joint(plan, msgs, block) for block in ("signatures", "messages")])


class TestTransmitJoint:
    def test_all_inactive(self, joint_setup):
        params, sched, plan = joint_setup
        for block, length in (("signatures", sched.n_sig), ("messages", sched.n_msg)):
            signal = transmit_joint(plan, np.zeros(params.ell, dtype=int), block)
            assert (signal == 0).all()
            assert len(signal) == length

    def test_single_user(self, joint_setup):
        params, sched, plan = joint_setup
        msgs = np.zeros(params.ell, dtype=int)
        msgs[2] = 3
        signal = transmit_both(plan, msgs)
        expected = np.concatenate([plan.signatures.rows[2], plan.codebooks[2].words[3]])
        assert np.array_equal(signal, expected)

    def test_two_users_brute_force(self, joint_setup):
        params, sched, plan = joint_setup
        msgs = np.zeros(params.ell, dtype=int)
        msgs[1], msgs[4] = 2, 4
        signal = transmit_both(plan, msgs)
        # coordinatewise oracle: plain elementwise addition of both words
        sig = plan.signatures.rows[1] + plan.signatures.rows[4]
        msg = plan.codebooks[1].words[2] + plan.codebooks[4].words[4]
        assert np.allclose(signal, np.concatenate([sig, msg]), rtol=0, atol=1e-12)

    def test_linearity_disjoint_supports(self, joint_setup):
        params, sched, plan = joint_setup
        a = np.array([1, 0, 2, 0, 0, 0])
        b = np.array([0, 3, 0, 0, 4, 0])
        merged = a + b
        assert np.allclose(
            transmit_both(plan, a) + transmit_both(plan, b),
            transmit_both(plan, merged),
            rtol=1e-12,
        )

    def test_per_user_energy_cap(self, joint_setup):
        params, sched, plan = joint_setup
        for i in range(params.ell):
            for w in range(1, plan.M + 1):
                word = np.concatenate([plan.signatures.rows[i], plan.codebooks[i].words[w]])
                assert word @ word <= sched.E + 1e-9

    def test_dimension_mismatch(self, joint_setup):
        _, _, plan = joint_setup
        for block in ("signatures", "messages"):
            with pytest.raises(ValueError, match="message vector length 3 != ell 6"):
                transmit_joint(plan, np.zeros(3, dtype=int), block)

    def test_unknown_block(self, joint_setup):
        params, _, plan = joint_setup
        with pytest.raises(ValueError, match="unknown block 'pilots'"):
            transmit_joint(plan, np.zeros(params.ell, dtype=int), block="pilots")

    @pytest.mark.parametrize("change", ["ell", "codebooks"])
    def test_books_must_match_signatures(self, joint_setup, change):
        _, _, plan = joint_setup
        fields = {"ell": plan.ell + 1} if change == "ell" else {"codebooks": [plan.codebooks[0]] * 5}
        with pytest.raises(ValueError, match="one signature column and one codebook per user"):
            dataclasses.replace(plan, **fields)


class TestJointCodebooks:
    def test_book_comes_from_its_substream(self, joint_setup):
        # stream contract: signatures, then one 64-bit key; user i's book
        # is drawn from substream(key, i)
        params, sched, plan = joint_setup
        rng = make_rng(10)
        gen_signatures(params.ell, sched.n_sig, sched.E_sig, rng)
        key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        for i in range(params.ell):
            book = gen_codebook(4, sched.n_msg, sched.E_msg, substream(key, i))
            assert plan.codebooks[i].words.tobytes() == book.words.tobytes()

    def test_book_independent_of_read_order(self, joint_setup, monkeypatch):
        params, sched, _ = joint_setup
        calls = []

        def counting_gen_codebook(*args):
            calls.append(args)
            return gen_codebook(*args)

        monkeypatch.setattr(channel, "gen_codebook", counting_gen_codebook)

        def read(order):
            calls.clear()
            plan = make_joint_plan(params, sched, 4, make_rng(10))
            books = {i: plan.codebooks[i].words.tobytes() for i in order}
            assert len(calls) == len(books)  # only the books read are drawn
            return books

        alone = read([3])[3]
        assert read([5, 0, 3])[3] == alone
        assert read(range(params.ell))[3] == alone
        assert read(reversed(range(params.ell))) == read(range(params.ell))

    def test_rekeyed_books_match_substreams_in_any_read_order(self, joint_setup):
        # the plan re-keys one generator per book: every book must still
        # carry substream(key, i)'s bytes, whatever was read before it
        params, sched, _ = joint_setup
        rng = make_rng(10)
        gen_signatures(params.ell, sched.n_sig, sched.E_sig, rng)
        key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        want = [gen_codebook(4, sched.n_msg, sched.E_msg, substream(key, i)) for i in range(params.ell)]
        order_rng = make_rng(77)
        for _ in range(8):
            plan = make_joint_plan(params, sched, 4, make_rng(10))
            for i in order_rng.permutation(params.ell)[: 1 + int(order_rng.integers(params.ell))]:
                book = plan.codebooks[int(i)]
                assert book.words.tobytes() == want[i].words.tobytes()
                assert book.energies.tobytes() == want[i].energies.tobytes()

    def test_books_are_cached_and_read_only(self, joint_setup):
        params, _, plan = joint_setup
        assert len(plan.codebooks) == params.ell
        assert plan.codebooks[2] is plan.codebooks[2]
        assert plan.codebooks[-1] is plan.codebooks[params.ell - 1]
        with pytest.raises(IndexError):
            plan.codebooks[params.ell]
        with pytest.raises(TypeError):
            plan.codebooks[0] = plan.codebooks[1]


class TestBookHelper:
    def test_book_taken_back_is_never_drawn_by_the_helper(self, joint_setup, monkeypatch):
        # the helper holds a job of its own while every book is queued and
        # read, so the reader takes each one back; once the helper is free
        # and its queue has drained, it must have drawn none of them
        params, sched, plan = joint_setup
        drawers = []

        def noting_gen_codebook(*args):
            drawers.append(threading.current_thread())
            return gen_codebook(*args)

        monkeypatch.setattr(channel, "gen_codebook", noting_gen_codebook)
        release = threading.Event()
        busy = channel._HELPER.submit(release.wait, 10.0)
        books = plan.codebooks
        with books.drawing(range(params.ell)):
            got = [books[i].words.tobytes() for i in range(params.ell)]
        release.set()
        assert busy.result()
        channel._HELPER.submit(int).result()  # every job queued before it has left the queue
        assert drawers == [threading.current_thread()] * params.ell
        fresh = make_joint_plan(params, sched, 4, make_rng(10))
        assert got == [fresh.codebooks[i].words.tobytes() for i in range(params.ell)]

    def test_failed_helper_draw_raises_on_every_read(self, joint_setup, monkeypatch):
        # the helper's draw of book 2 fails: every read raises its error,
        # the end of `drawing` too, and the reader never draws it instead
        class DrawFailed(Exception):
            pass

        main, here = threading.current_thread(), []

        def failing_on_the_helper(*args):
            if threading.current_thread() is not main:
                raise DrawFailed
            here.append(args)
            return gen_codebook(*args)

        monkeypatch.setattr(channel, "gen_codebook", failing_on_the_helper)
        books = joint_setup[2].codebooks
        with pytest.raises(DrawFailed):
            with books.drawing([2]):
                channel._HELPER.submit(int).result()  # the helper has tried book 2
                for _ in range(3):
                    with pytest.raises(DrawFailed):
                        books[2]
        with pytest.raises(DrawFailed):
            books[2]
        assert here == []

    def test_joint_trial_from_an_atexit_handler(self):
        # atexit handlers run once the helper refuses new jobs: the trial
        # must draw its books as it reads them and give the same record,
        # and the exit must not wait on the helper's idle thread
        cfg = ExperimentConfig(scheme="joint", params=SystemParams(n=512, ell=8, alpha=0.25, N0=2.0),
                               split=0.5, M=4, bp=BoundParams(xi=8), trials=40, master_seed=2024)
        index = next(i for i in range(cfg.trials) if run_trial(cfg, i).k_true > 0)
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", ATEXIT_TRIAL, str(index)],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.strip() == repr(run_trial(cfg, index))


class TestTransmitOrtho:
    def test_dimension_mismatch(self, ortho_setup):
        _, _, plan = ortho_setup
        with pytest.raises(ValueError, match="message vector length 3 != ell 2"):
            transmit_ortho(plan, np.zeros(3, dtype=int))

    def test_inactive_slot_zero(self, ortho_setup):
        params, sched, plan = ortho_setup
        msgs = np.array([0, 1])
        signal = transmit_ortho(plan, msgs)
        slot = plan.slot_len
        assert (signal[:slot] == 0).all()
        assert signal[slot] == pytest.approx(math.sqrt(sched.split * sched.E))

    def test_slot_isolation(self, ortho_setup):
        params, sched, plan = ortho_setup
        slot = plan.slot_len
        s1 = transmit_ortho(plan, np.array([1, 1]))
        s2 = transmit_ortho(plan, np.array([1, 2]))
        assert np.array_equal(s1[:slot], s2[:slot])
        assert not np.array_equal(s1[slot:], s2[slot:])

    def test_concatenation_oracle(self):
        params = SystemParams(n=6, ell=2, alpha=1.0, N0=2.0)
        # slot of 3: pilot + 2 message positions
        sched = make_ortho_schedule(SystemParams(n=64, ell=2, alpha=1.0, N0=2.0), 0.25)
        plan = make_ortho_plan(params, sched, 2)
        msgs = np.array([2, 1])
        signal = transmit_ortho(plan, msgs)
        book = plan.book
        assert np.array_equal(signal, np.concatenate([book.words[2], book.words[1]]))


class TestAwgn:
    def test_negative_noise_level(self):
        with pytest.raises(ValueError, match="noise level must be >= 0, got -1.0"):
            awgn(np.zeros(4), -1.0, make_rng(0))

    @pytest.mark.parametrize("N0", [math.nan, math.inf])
    def test_non_finite_noise_level(self, N0):
        # unchecked, NaN gives an all-NaN block and inf a block of +-inf
        with pytest.raises(ValueError, match=f"noise level must be finite, got {N0}"):
            awgn(np.zeros(4), N0, make_rng(0))

    def test_zero_noise_passthrough(self):
        x = np.arange(8.0)
        y = awgn(x, 0.0, make_rng(0))
        assert np.array_equal(x, y)
        y[0] = 99.0
        assert x[0] == 0.0  # passthrough copies

    def test_moments(self):
        n = 10**6
        noise = awgn(np.zeros(n), 2.0, make_rng(8))
        assert abs(noise.mean()) <= 3.0 * math.sqrt(1.0 / n)
        var_sigma = math.sqrt(2.0 / n)  # var of sample variance of N(0,1)
        assert abs(noise.var() - 1.0) <= 3.0 * var_sigma

    def test_noise_bytes(self):
        # the noise is scaled and added in place: the same bytes as
        # signal + z * sqrt(N0/2)
        x = make_rng(4).standard_normal(257)
        z = make_rng(5).standard_normal(257)
        assert awgn(x, 3.0, make_rng(5)).tobytes() == (x + z * np.sqrt(1.5)).tobytes()

    def test_seed_determinism(self):
        x = np.ones(32)
        assert np.array_equal(awgn(x, 2.0, make_rng(3)), awgn(x, 2.0, make_rng(3)))
