from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab import rng
from sparselab.rng import derive_seed, derived_generators, make_generator


def test_derive_seed_is_splitmix64():
    # splitmix64's reference outputs from state 1234567; derive_seed(m, t)
    # is the (t+1)-th output from state m
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821]
    assert [derive_seed(1234567, t) for t in range(5)] == expected


def test_seed_words_match_numpy_seed_sequence_at_the_word_edges():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = rng._pcg64_seed_words(np.array(seeds, dtype=np.uint64))
    for i, seed in enumerate(seeds):
        assert [int(w[i]) for w in words] == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    lo=st.integers(0, 2**20),
    length=st.integers(0, 12),
    chunk=st.sampled_from([1, 3, 7, rng._CHUNK]),
)
@example(seed=0, lo=0, length=0, chunk=rng._CHUNK)  # an empty range
@example(seed=1, lo=5, length=4, chunk=rng._CHUNK)
@example(seed=2**32 - 1, lo=0, length=9, chunk=4)  # crosses two chunk boundaries
@example(seed=2**32, lo=3, length=1, chunk=rng._CHUNK)
@example(seed=2**63, lo=rng._CHUNK - 2, length=5, chunk=rng._CHUNK)
@example(seed=2**64 - 1, lo=10**6, length=6, chunk=3)
@example(seed=11, lo=rng._CHUNK - 3, length=2 * rng._CHUNK + 6, chunk=rng._CHUNK)  # over two full chunks
def test_derived_generators_draw_the_derived_streams(seed, lo, length, chunk):
    with mock.patch.object(rng, "_CHUNK", chunk):
        for t, gen in zip(range(lo, lo + length), derived_generators(seed, lo, lo + length), strict=True):
            ref = make_generator(derive_seed(seed, t))
            assert gen.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(gen.permutation(50), ref.permutation(50))

