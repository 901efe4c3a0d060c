"""The raw-word draws of random circuits and product inputs against numpy's
own scalar `Generator` calls, which they must reproduce exactly.

The oracles below are the scalar-call forms of `_draw_random` and
`random_product_factors`. A numpy release that changes a sampler (NumPy
NEP 19 allows it) fails here before it moves any golden row."""

import numpy as np
import pytest

from qnoisebench import benchmarks
from qnoisebench.benchmarks import (_RANDOM_LETTERS, _RANDOM_SINGLES,
                                    CNOT_CYCLE_PROB, _draw_chunk,
                                    _draw_random, _RawDraws, build_random,
                                    random_plan)
from qnoisebench.errors import InvalidParams
from qnoisebench.states import random_product_factors


def scalar_draw_random(n, depth, seed):
    """`_draw_random` as one scalar `Generator` call per draw."""
    rng = np.random.default_rng(seed)
    singles, flips = [], []
    for _ in range(depth):
        row = [0] * n
        pair = ()
        if rng.random() < CNOT_CYCLE_PROB:
            a, b = rng.choice(n, size=2, replace=False)
            pair = (int(a), int(b))
        for q in range(n):
            if q not in pair:
                row[q] = int(rng.integers(len(_RANDOM_SINGLES)))
        singles.append(row)
        flips.append((pair,) if pair else ())
    return singles, flips


def scalar_product_factors(n, seeds):
    """`random_product_factors` as one `uniform(lows, highs)` call per seed."""
    lows, highs = np.tile([0.0, -1.0], n), np.tile([2.0 * np.pi, 1.0], n)
    draws = np.array([np.random.default_rng(s).uniform(lows, highs)
                      for s in seeds]).reshape(-1, n, 2)
    phi, theta = draws[..., 0], np.arccos(draws[..., 1])
    return np.stack([np.cos(theta / 2.0),
                     np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)


SEED_FORMS = [
    ("int", lambda k: k),
    ("tuple", lambda k: (7, k % 3, k)),
    ("seed sequence", lambda k: np.random.SeedSequence((1, 2, k)).spawn(3)[1]),
]


@pytest.mark.parametrize("form", SEED_FORMS, ids=[f for f, _ in SEED_FORMS])
@pytest.mark.parametrize("n", range(2, 9))
def test_draw_random_equals_the_scalar_calls(n, form):
    """Equal draws at every n from 2 to 8, depths 1, 30 and 70, for every
    seed form callers pass: from the scalar walk `_draw_random`, and from
    the chunk walk `_draw_chunk` in chunks of 25 seeds and of 1. Every
    ordered pair of qubits turns up as a CNOT, so both outcomes of
    `choice`'s closing swap are covered, and at n = 2 its first Floyd draw,
    over 0..0, draws nothing."""
    _, seed = form
    seeds = [seed(k) for k in range(60)]
    pairs = set()
    for depth in (1, 30, 70):
        chunked = [draw for lo in range(0, len(seeds), 25)
                   for draw in zip(*_draw_chunk(n, depth, seeds[lo:lo + 25]))]
        for s, (letters, flips) in zip(seeds, chunked):
            want = scalar_draw_random(n, depth, s)
            assert _draw_random(n, depth, s) == want
            want_letters = _RANDOM_LETTERS[np.array(want[0])]
            one_letters, (one_flips,) = _draw_chunk(n, depth, [s])
            for got_letters, got_flips in ((letters, flips),
                                           (one_letters[0], one_flips)):
                np.testing.assert_array_equal(got_letters, want_letters)
                assert got_flips == want[1]
            pairs |= {p for cycle in flips for p in cycle}
    assert pairs == {(a, b) for a in range(n) for b in range(n) if a != b}


def test_draw_random_without_a_seed():
    """Entropy-seeded draws cannot be compared, so only their shape and
    ranges are checked: letters in range, 0 on the CNOT's qubits."""
    singles, flips = _draw_random(5, 40, None)
    assert len(singles) == len(flips) == 40
    for row, cycle in zip(singles, flips):
        assert len(row) == 5
        assert all(0 <= k < len(_RANDOM_SINGLES) for k in row)
        assert len(cycle) <= 1
        for a, b in cycle:
            assert 0 <= a < 5 and 0 <= b < 5 and a != b
            assert row[a] == row[b] == 0
    with pytest.raises(InvalidParams):
        _draw_random(1, 4, 0)


@pytest.mark.parametrize("form", SEED_FORMS, ids=[f for f, _ in SEED_FORMS])
def test_product_factors_equal_the_scalar_calls(form):
    _, seed = form
    seeds = [seed(k) for k in range(50)]
    for n in range(1, 9):
        np.testing.assert_array_equal(random_product_factors(n, seeds),
                                      scalar_product_factors(n, seeds))
    assert random_product_factors(3, []).shape == (0, 3, 2)


def test_product_factors_without_a_seed():
    factors = random_product_factors(4, [None, None])
    assert factors.shape == (2, 4, 2)
    np.testing.assert_allclose(np.linalg.norm(factors, axis=-1), 1.0,
                               rtol=0, atol=1e-15)
    assert np.all(factors[..., 0].imag == 0) and np.all(factors[..., 0] >= 0)


class ChosenWords:
    """A bit generator that hands out chosen 64-bit words, logging each
    `random_raw` block size asked for."""

    def __init__(self, words):
        self.words, self.blocks = list(words), []

    def random_raw(self, size):
        self.blocks.append(size)
        block, self.words = self.words[:size], self.words[size:]
        return np.array(block, dtype=np.uint64)


def halves(low, high):
    return high << 32 | low


def test_bounded_rejects_a_low_product_below_the_threshold():
    """Over 0..2^31 the threshold is (2^32 - 1 - 2^31) mod (2^31 + 1) =
    2^31 - 1. The 32-bit draw 2 makes a product whose low 32 bits are 2, so
    it is rejected; the next draw, 3 * 2^30, is kept and gives 3 * 2^29."""
    r = 2 ** 31
    assert (0xFFFFFFFF - r) % (r + 1) == 2 ** 31 - 1
    assert 2 * (r + 1) & 0xFFFFFFFF == 2
    draws = _RawDraws(ChosenWords([halves(2, 3 << 30)]), 4)
    assert draws.bounded(r) == 3 << 29
    # Over 0..4 the threshold is 1: only the draw 0 is rejected.
    draws = _RawDraws(ChosenWords([halves(0, 0xFFFFFFFF)]), 4)
    assert draws.bounded(4) == 4
    # A range of 0 draws nothing: the next 32-bit draw is the same word's.
    draws = _RawDraws(ChosenWords([halves(1 << 31, 3 << 30)]), 4)
    assert draws.bounded(0) == 0
    assert draws.bounded(1) == 1 and draws.bounded(1) == 1
    assert draws.high is None


def test_bounded_rejection_matches_numpy():
    """Over 0..2^31 about half the draws are rejected; numpy's
    `integers(2^31 + 1)` and `bounded(2^31)` agree draw for draw."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        draws = _RawDraws(np.random.PCG64(seed), 8)
        for _ in range(50):
            assert draws.bounded(2 ** 31) == rng.integers(2 ** 31 + 1)
            assert draws.random() == rng.random()


def test_a_waiting_high_half_outlives_random_calls():
    """A 32-bit draw takes a word's low half; `random()` takes the next
    whole word; the 32-bit draw after it takes the first word's high half."""
    words = [halves(1 << 31, 3 << 30), 0xFFFFFFFFFFFFF800, halves(1 << 30, 0)]
    draws = _RawDraws(ChosenWords(words), 4)
    assert draws.bounded(1) == 1            # low half of word 0
    assert draws.random() == 1.0 - 2.0 ** -53   # word 1, top 53 bits
    assert draws.bounded(3) == 3            # high half of word 0
    assert draws.bounded(3) == 1            # low half of word 2


def test_words_refill_when_the_first_block_runs_out():
    """A block of 2 words serves 2 random() calls; the third call fetches
    another block from the same bit generator, so the draws go on as one
    stream, equal to numpy's own."""
    source = ChosenWords([0, 1 << 11, 2 << 11, 3 << 11, 4 << 11])
    draws = _RawDraws(source, 2)
    assert [draws.random() for _ in range(5)] == [k * 2.0 ** -53
                                                  for k in range(5)]
    assert source.blocks == [2, 2, 2]
    rng = np.random.default_rng(9)
    draws = _RawDraws(np.random.PCG64(9), 1)
    for _ in range(30):
        assert draws.random() == rng.random()
        assert draws.bounded(4) == rng.integers(5)


def test_a_rejected_draw_redraws_its_trial_by_the_scalar_walk(monkeypatch):
    """Over 0..4 the threshold is 1, so a zero 32-bit draw in a singles slot
    is rejected. One trial of a chunk of three gets such words: a word of
    2^63 (no CNOT), then a word whose low half is 0 and whose high half is
    2^32 - 1. Its qubit 0 takes the high half, an h, and the trial equals
    the scalar walk on the same words, which the chunk walk hands it to
    alone; the other two trials are as drawn without it."""
    n, depth = 4, 30
    words = [1 << 63, halves(0, 0xFFFFFFFF)] + np.random.PCG64(5).random_raw(
        2 * depth * n).tolist()
    real = benchmarks.pcg64
    monkeypatch.setattr(benchmarks, "pcg64", lambda s: ChosenWords(words)
                        if s == "chosen" else real(s))
    walked = []
    real_walk = benchmarks._draw_random

    def walk(n, depth, seed):
        walked.append(seed)
        return real_walk(n, depth, seed)

    seeds = [3, "chosen", 4]
    want = [_draw_chunk(n, depth, [s]) for s in (3, 4)]
    monkeypatch.setattr(benchmarks, "_draw_random", walk)
    letters, flips = _draw_chunk(n, depth, seeds)
    assert walked == ["chosen"]
    singles, scalar_flips = real_walk(n, depth, "chosen")
    assert singles[0][0] == _RANDOM_SINGLES.index("h")
    np.testing.assert_array_equal(letters[1],
                                  _RANDOM_LETTERS[np.array(singles)])
    assert flips[1] == scalar_flips
    for t, (one_letters, (one_flips,)) in zip((0, 2), want):
        np.testing.assert_array_equal(letters[t], one_letters[0])
        assert flips[t] == one_flips
        assert one_flips == scalar_draw_random(n, depth, seeds[t])[1]


@pytest.mark.parametrize("seed", [1.5, -1, np.random.default_rng(0)],
                         ids=["float", "negative", "generator"])
def test_a_seed_of_another_form_raises_invalid_params(seed):
    """A seed that is not None, an integer >= 0, a sequence of them or a
    SeedSequence ends typed where the draws make their PCG64."""
    for call in (lambda: build_random(4, 5, seed=seed),
                 lambda: random_plan(4, 5, [seed]),
                 lambda: random_product_factors(2, [seed])):
        with pytest.raises(InvalidParams, match="seed"):
            call()
