"""The raw-word draws of random circuits and product inputs against numpy's
own scalar `Generator` calls, which they must reproduce exactly.

numpy is the only oracle: the scalar-call forms of `_draw_random` and
`random_product_factors` below, and, for a rejected bounded draw, a real
PCG64 set to a state chosen to output the words that make it. A numpy
release that changes a sampler (NumPy NEP 19 allows it) fails here before
it moves any golden row."""

import numpy as np
import pytest

from qnoisebench import benchmarks, states
from qnoisebench.benchmarks import (_RANDOM_LETTERS, _RANDOM_SINGLES,
                                    CNOT_CYCLE_PROB, _draw_chunk,
                                    _draw_random, build_random, random_plan)
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
    seed form callers pass: from the rejection fallback `_draw_random`, and
    from the chunk walk `_draw_chunk` in chunks of 25 seeds and of 1, whose
    32-bit draws leave a word's high half waiting across `random()` calls.
    Every ordered pair of qubits turns up as a CNOT, so both outcomes of
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


# numpy's PCG64 steps its 128-bit state s <- s * PCG_MULT + inc, then outputs
# rotr64(hi ^ lo, hi >> 58) of the new state's halves.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64, MASK128 = 2 ** 64 - 1, 2 ** 128 - 1


def chosen_pcg64(second, first_ok):
    """A maker of fresh PCG64s whose raw words 0 and 1 are some word that
    passes `first_ok` and `second`. The state after two steps outputs
    `second` when lo = hi ^ rotl64(second, hi >> 58); two steps back by
    PCG_MULT's inverse, with the generator's own inc, give the state to
    set. Word 0 follows from hi, so hi is tried until it passes."""
    inc = np.random.PCG64(0).state["state"]["inc"]
    back = pow(PCG_MULT, -1, 2 ** 128)
    for k in range(1, 1000):
        hi = k * 0x9E3779B97F4A7C15 & MASK64
        r = hi >> 58
        s = hi << 64 | hi ^ ((second << r | second >> (64 - r)) & MASK64)
        s = ((s - inc) * back - inc) * back & MASK128
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                 "state": {"state": s, "inc": inc}}

        def make(state=state):
            bitgen = np.random.PCG64(0)
            bitgen.state = state
            return bitgen

        first, word = make().random_raw(2).tolist()
        assert word == second
        if first_ok(first):
            return make
    raise AssertionError("no state found")


def check_rejected_trial(monkeypatch, n, make):
    """In a chunk of three seeds, the middle one made by `make`, only that
    trial goes to `_draw_random`, and it equals the scalar calls on a
    `Generator` over the same state; the other two equal their one-seed
    chunks. Returns the scalar singles and flips."""
    depth, seeds = 30, [3, "chosen", 4]
    want = [_draw_chunk(n, depth, [s]) for s in (3, 4)]
    real = states.pcg64
    for module in (states, benchmarks):  # the raw words and the fallback
        monkeypatch.setattr(module, "pcg64",
                            lambda s: make() if s == "chosen" else real(s))
    walked, real_walk = [], benchmarks._draw_random

    def walk(n, depth, seed):
        walked.append(seed)
        return real_walk(n, depth, seed)

    monkeypatch.setattr(benchmarks, "_draw_random", walk)
    letters, flips = _draw_chunk(n, depth, seeds)
    assert walked == ["chosen"]
    singles, scalar_flips = scalar_draw_random(n, depth, make())
    np.testing.assert_array_equal(letters[1],
                                  _RANDOM_LETTERS[np.array(singles)])
    assert flips[1] == scalar_flips
    for t, (one_letters, (one_flips,)) in zip((0, 2), want):
        np.testing.assert_array_equal(letters[t], one_letters[0])
        assert flips[t] == one_flips
    return singles, scalar_flips


def test_a_rejected_singles_draw_redraws_its_trial_by_numpy(monkeypatch):
    """Over 0..4 the threshold is (2^32 - 5) mod 5 = 1, so a zero 32-bit
    draw is rejected. Word 0 is at least 2^62 (no CNOT); word 1's low half
    is 0 and its high half 2^32 - 1, so qubit 0 takes the high half, an h."""
    assert (0xFFFFFFFF - 4) % 5 == 1
    make = chosen_pcg64(0xFFFFFFFF_00000000, lambda w: w >= 1 << 62)
    singles, flips = check_rejected_trial(monkeypatch, 4, make)
    assert flips[0] == ()
    assert singles[0][0] == _RANDOM_SINGLES.index("h")


def test_a_rejected_floyd_draw_redraws_its_trial_by_numpy(monkeypatch):
    """At n = 7, Floyd's first draw is over 0..5, where the threshold is
    2^32 mod 6 = 4. Word 0 is below 2^61 (a CNOT cycle); word 1's low half
    2^31 times 6 is 0 mod 2^32, below it: a nonzero draw is rejected. Its
    high half, 2^32 - 1, is kept, so no zero draw flags the trial."""
    assert (0xFFFFFFFF - 5) % 6 == 4 and 6 * 2 ** 31 % 2 ** 32 == 0
    make = chosen_pcg64(0xFFFFFFFF_80000000, lambda w: w < 1 << 61)
    _, flips = check_rejected_trial(monkeypatch, 7, make)
    assert flips[0] != ()


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
