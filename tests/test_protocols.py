"""Protocols: tomography, RB with a closed-form error oracle, XEB, QV."""

from functools import reduce

import numpy as np
import pytest

from dense_helpers import equal_up_to_phase
from qnoisebench.errors import (
    FitDiverged,
    InvalidParams,
    NotADistribution,
    ZeroIdealProbability,
)
from qnoisebench.gates import FIXED_MATRICES, I2
from qnoisebench.linalg import phase_canonical_keys
from qnoisebench.metrics import trace_distance
from qnoisebench.noise import (
    AmplitudeDamping,
    CoherentNoise,
    NoNoise,
    PauliNoise,
    PauliPlusCoherent,
    PhaseDamping,
    pair_superoperator,
    superoperator,
)
from qnoisebench import protocols
from qnoisebench.protocols import (
    EULER_GAMMA,
    clifford_group,
    heavy_output_test,
    project_psd,
    quantum_volume,
    rb_experiment,
    rb_fit,
    rb_sequence_indices,
    state_tomography_1q,
    xeb_score,
)
from qnoisebench.states import (MAX_SHOTS, DensityMatrix, Ket, ket_to_density,
                                sample_measurements)

rng = np.random.default_rng(91)


# ---------------------------------------------------------------------------
# Tomography.


def fixed_state(amplitudes):
    rho = ket_to_density(Ket(np.asarray(amplitudes, dtype=np.complex128)))
    return lambda: rho


def test_tomography_exact_recovers_pure_states():
    phi = 0.6
    prep = fixed_state([1 / np.sqrt(2), np.exp(1j * phi) / np.sqrt(2)])
    res = state_tomography_1q(prep)
    assert res.s[0] == 1.0
    np.testing.assert_allclose(
        res.s[1:], [np.cos(phi), np.sin(phi), 0.0], atol=1e-12)
    np.testing.assert_allclose(res.reconstructed.matrix, prep().matrix,
                               atol=1e-12)


def test_tomography_exact_recovers_mixed_state():
    mixed = DensityMatrix(np.diag([0.7, 0.3]).astype(np.complex128))
    res = state_tomography_1q(lambda: mixed)
    np.testing.assert_allclose(res.s, (1.0, 0.0, 0.0, 0.4), atol=1e-12)
    np.testing.assert_allclose(res.reconstructed.matrix, mixed.matrix,
                               atol=1e-12)


def test_tomography_sampled_converges_and_stays_physical():
    prep = fixed_state([np.cos(0.2), np.sin(0.2)])
    res = state_tomography_1q(prep, shots_per_basis=20000, seed=8)
    assert trace_distance(res.reconstructed, prep()) < 0.03
    eigs = np.linalg.eigvalsh(res.reconstructed.matrix)
    assert eigs.min() >= -1e-12
    again = state_tomography_1q(prep, shots_per_basis=20000, seed=8)
    assert again.s == res.s  # seeded


def test_project_psd_clips_and_renormalizes():
    raw = np.diag([1.1, -0.1]).astype(np.complex128)
    out = project_psd(raw)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(InvalidParams):
        project_psd(-np.eye(2).astype(np.complex128))


# ---------------------------------------------------------------------------
# Clifford group.


def test_clifford_group_has_24_distinct_elements():
    mats, words = clifford_group()
    assert len(mats) == len(words) == 24
    assert len(set(phase_canonical_keys(np.stack(mats)).tolist())) == 24


def test_clifford_words_rebuild_their_matrices():
    mats, words = clifford_group()
    for u, word in zip(mats, words):
        built = reduce(lambda acc, ch: FIXED_MATRICES[ch] @ acc, word, I2)
        assert equal_up_to_phase(built, u, tol=1e-10)


def test_clifford_group_closed_under_adjoint():
    mats, _ = clifford_group()
    keys = set(phase_canonical_keys(np.stack(mats)).tolist())
    for u in mats:
        assert phase_canonical_keys(u.conj().T[None]).tolist()[0] in keys


def test_rb_sequences_compose_to_identity():
    mats, _ = clifford_group()
    local = np.random.default_rng(17)
    for m in (1, 5, 20):
        picks = rb_sequence_indices(m, local)
        assert len(picks) == m + 1
        net = reduce(lambda acc, i: mats[i] @ acc, picks, I2)
        assert equal_up_to_phase(net, I2, tol=1e-9)


def test_clifford_words_are_pinned():
    """Breadth-first over {h, s}, parent first then letter: the words and
    their order are part of every seeded RB draw."""
    _, words = clifford_group()
    assert words == (
        "", "h", "s", "hs", "sh", "ss", "hsh", "hss", "shs", "ssh", "sss",
        "hshs", "hssh", "hsss", "shss", "sshs", "hshss", "hsshs", "shssh",
        "shsss", "sshss", "hshssh", "hshsss", "hsshss",
    )


def test_rb_sequence_indices_are_pinned():
    local = np.random.default_rng(2024)
    assert [rb_sequence_indices(m, local) for m in (1, 3, 8)] == [
        [5, 5],
        [16, 2, 5, 3],
        [7, 7, 21, 19, 21, 23, 1, 3, 21],
    ]


# ---------------------------------------------------------------------------
# Randomized benchmarking.


def test_rb_noiseless_is_flat_and_degenerate():
    surv = rb_experiment((2, 4, 8), sequences_per_length=5, seed=0)
    np.testing.assert_allclose(surv, 1.0, atol=1e-12)
    fit = rb_fit((2, 4, 8), surv)
    assert fit.degenerate
    assert fit.r == 0.0
    assert fit.b == pytest.approx(1.0)


def test_rb_survivals_are_pinned():
    got = rb_experiment((1, 4, 16), 10, noise=PauliNoise.symmetric(0.02),
                        seed=3)
    np.testing.assert_allclose(
        got, [0.9736888888888888, 0.9367953315292172, 0.8158036525658219],
        rtol=0, atol=1e-12)
    got = rb_experiment((1, 4, 16), 10, noise=AmplitudeDamping(0.05), seed=4)
    np.testing.assert_allclose(
        got, [0.9749863656892123, 0.9539753833413945, 0.808073855174316],
        rtol=0, atol=1e-12)


def rb_reference(lengths, sequences_per_length, noise, seed):
    """Mean survival from one fused 4x4 step per Clifford, state by state:
    the loop `rb_experiment` ran before it ran the plan."""
    chan = superoperator(noise)
    steps = [chan @ pair_superoperator(c) for c in clifford_group()[0]]
    rng = np.random.default_rng(seed)
    means = []
    for m in lengths:
        total = 0.0
        for _ in range(sequences_per_length):
            v = np.array([1, 0, 0, 0], dtype=np.complex128)  # |0><0|
            for idx in rb_sequence_indices(m, rng):
                v = steps[idx] @ v
            total += float(v[0].real)
        means.append(total / sequences_per_length)
    return np.asarray(means)


@pytest.mark.parametrize("noise", [
    NoNoise(),
    PauliNoise(0.02, 0.01, 0.03),
    CoherentNoise("z", 0.2),
    CoherentNoise("x", 0.15),
    PauliPlusCoherent(0.05, 0.1),
    AmplitudeDamping(0.3),
    PhaseDamping(0.2),
], ids=repr)
def test_rb_experiment_matches_per_step_reference(noise):
    got = rb_experiment((1, 4, 16), 12, noise=noise, seed=7)
    np.testing.assert_allclose(got, rb_reference((1, 4, 16), 12, noise, 7),
                               rtol=0, atol=1e-12)


def test_rb_experiment_builds_the_noise_table_once(monkeypatch):
    """One model object over four lengths builds its superoperator once,
    and the survivals are the ones it gave when each plan rebuilt it."""
    from qnoisebench import noise as noise_module

    calls = []
    real = noise_module.superoperator

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(noise_module, "superoperator", counting)
    noise = PauliPlusCoherent(0.02, 0.05)
    got = rb_experiment((1, 4, 16, 64), 10, noise=noise, seed=5)
    assert calls == [noise]
    np.testing.assert_array_equal(got, [0.9609455375409253, 0.9085570815938773,
                                        0.8009469783470902, 0.5706656467636987])


def test_rb_fit_recovers_synthetic_decay():
    a, b, r = 0.6, 0.35, 0.015
    lengths = (1, 2, 4, 8, 16, 32, 64)
    surv = [a * (1 - 2 * r) ** m + b for m in lengths]
    fit = rb_fit(lengths, surv)
    assert fit.a == pytest.approx(a, abs=1e-6)
    assert fit.b == pytest.approx(b, abs=1e-6)
    assert fit.r == pytest.approx(r, abs=1e-8)
    assert fit.residual < 1e-12


def test_rb_recovers_pauli_error_rate():
    """Oracle: a symmetric Pauli channel of total eps is depolarizing with
    RB decay r = 2 eps / 3; exact survivals make the fit sharp."""
    eps = 0.01
    surv = rb_experiment((2, 4, 8, 16, 32, 64), sequences_per_length=20,
                         noise=PauliNoise.symmetric(eps), seed=42)
    fit = rb_fit((2, 4, 8, 16, 32, 64), surv)
    assert fit.r == pytest.approx(2 * eps / 3, rel=1e-6)


def test_rb_fit_rejects_garbage():
    with pytest.raises(InvalidParams):
        rb_fit((2, 2, 4), (0.9, 0.9, 0.8))
    with pytest.raises(FitDiverged):
        rb_fit((1, 2, 3, 4), (1.0, 0.0, 1.0, 0.0))
    with pytest.raises(InvalidParams):
        rb_experiment((0, 2), sequences_per_length=1)
    with pytest.raises(InvalidParams, match="3 sequence lengths but 4"):
        rb_fit((1, 2, 4), (1.0, 0.9, 0.8, 0.7))
    with pytest.raises(InvalidParams, match="finite"):
        rb_fit((1, 2, 4, 8), (1.0, 0.9, float("nan"), 0.7))


# ---------------------------------------------------------------------------
# Cross-entropy scoring.


def test_xeb_h0_value():
    p = np.full(16, 1.0 / 16)
    res = xeb_score(p, p)
    assert res.h0 == pytest.approx(np.log(16) + EULER_GAMMA)


def test_xeb_uniform_ideal_gives_gamma():
    # Against a uniform ideal any test distribution scores ln N, so the
    # cross-entropy difference is exactly the Euler gamma offset.
    p = np.full(8, 1.0 / 8)
    for test in (p, np.eye(8)[3]):
        res = xeb_score(p, test)
        assert res.delta_h == pytest.approx(EULER_GAMMA)
        assert res.alpha == res.delta_h


def test_xeb_sample_route_matches_empirical_distribution():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    samples = np.array([0, 0, 1, 2, 3, 0], dtype=np.int64)
    emp = np.bincount(samples, minlength=4) / samples.size
    assert xeb_score(p, samples).cross_entropy == pytest.approx(
        xeb_score(p, emp).cross_entropy)


def test_xeb_rejects_zero_ideal_mass():
    p = np.array([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ZeroIdealProbability):
        xeb_score(p, np.array([2, 3], dtype=np.int64))
    with pytest.raises(ZeroIdealProbability):
        xeb_score(p, np.array([0.0, 0.5, 0.5, 0.0]))
    with pytest.raises(NotADistribution):
        xeb_score(p, np.array([0.5, 0.5, 0.0]))  # length mismatch
    # Sampled outcomes outside 0..3: -1 would index the last outcome.
    for samples in ([-1, -1], [0, 4]):
        with pytest.raises(NotADistribution):
            xeb_score(p, np.array(samples, dtype=np.int64))

    # Float vectors that are not distributions, as test or as ideal.
    q = np.array([0.4, 0.3, 0.2, 0.1])
    for ideal, test in ((q, [2.0, -1.0, 0.0, 0.0]),
                        (q, [np.nan, 0.0, 0.0, 1.0]),
                        (-q, q),
                        ([np.nan, 0.5, 0.25, 0.25], q)):
        with pytest.raises(NotADistribution):
            xeb_score(np.array(ideal), np.array(test))


# ---------------------------------------------------------------------------
# Heavy outputs and quantum volume.


def test_heavy_output_hand_case():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    res = heavy_output_test(p, p)
    assert res.heavy_set == (0, 1)
    assert res.heavy_prob == pytest.approx(0.7)
    assert res.passed
    with pytest.raises(NotADistribution):  # one entry too many to sum
        heavy_output_test(p, np.array([0.4, 0.3, 0.2, 0.1, 0.5]))
    # A NaN test entry passed with heavy_prob 1.0; a NaN ideal entry
    # emptied the heavy set.
    for ideal, test in ((p, [np.nan, 0.0, 0.0, 1.0]),
                        (p, [2.0, 0.0, 0.0, 0.0]),
                        (p, [0.6, 0.6, -0.2, 0.0]),
                        ([np.nan, 0.5, 0.25, 0.25], p)):
        with pytest.raises(NotADistribution):
            heavy_output_test(np.array(ideal), np.array(test))


def test_heavy_output_sample_route():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    res = heavy_output_test(p, np.array([0, 1, 1, 2, 3], dtype=np.int64))
    assert res.heavy_prob == pytest.approx(0.6)
    assert not res.passed
    # Outcomes outside 0..3 would count as light samples.
    for samples in ([0, 4], [0, -1]):
        with pytest.raises(NotADistribution):
            heavy_output_test(p, np.array(samples, dtype=np.int64))


def test_heavy_set_is_at_most_half():
    for _ in range(100):
        p = rng.dirichlet(np.ones(16))
        res = heavy_output_test(p, p)
        assert len(res.heavy_set) <= 8


def test_heavy_prob_of_depolarized_distribution():
    # (1-lam) p + lam/N puts (1-lam) P_heavy + lam |heavy|/N on the heavy set.
    p = rng.dirichlet(np.ones(8))
    lam = 0.4
    mixed = (1 - lam) * p + lam / 8
    base = heavy_output_test(p, p)
    res = heavy_output_test(p, mixed)
    want = (1 - lam) * base.heavy_prob + lam * len(base.heavy_set) / 8
    assert res.heavy_prob == pytest.approx(want, abs=1e-12)


def test_quantum_volume_noiseless_and_saturated():
    assert quantum_volume(NoNoise(), max_m=3, circuits_per_size=10, seed=1) == 8
    # Total Pauli weight 0.75 is fully depolarizing per cycle; every heavy
    # test fails and the volume collapses.
    smashed = quantum_volume(PauliNoise.symmetric(0.75), max_m=3,
                             circuits_per_size=10, seed=1)
    assert smashed == 1


def test_quantum_volume_rejects_large_width():
    with pytest.raises(InvalidParams):
        quantum_volume(NoNoise(), max_m=9)


@pytest.mark.parametrize("max_m", [1, 0, -3, True, 2.5, "4"])
def test_quantum_volume_needs_an_integer_max_m_in_2_to_8(max_m):
    """A width outside 2..8, a bool or a fraction is no volume of 1 and no
    raw TypeError: it raises InvalidParams."""
    with pytest.raises(InvalidParams, match="max_m"):
        quantum_volume(NoNoise(), max_m=max_m, circuits_per_size=1)


def test_zero_sample_counts_raise():
    """Zero samples estimate nothing: no NaN state, no division by zero, no
    volume of 1 from zero circuits."""
    with pytest.raises(InvalidParams, match="shots_per_basis"):
        state_tomography_1q(fixed_state([1, 0]), shots_per_basis=0, seed=1)
    with pytest.raises(InvalidParams, match="sequences_per_length"):
        rb_experiment((1, 2), sequences_per_length=0)
    with pytest.raises(InvalidParams, match="sequence length"):
        rb_experiment((2.5, 3), sequences_per_length=1)
    with pytest.raises(InvalidParams, match="circuits_per_size"):
        quantum_volume(NoNoise(), max_m=2, circuits_per_size=0)


def test_protocol_inputs_end_typed_within_work_bounds(monkeypatch):
    """Inputs that are not numbers, and work past a bound, end typed before
    anything is allocated or run: no numpy ValueError, TypeError,
    MemoryError or OverflowError, and no long run."""
    uniform = np.full(4, 0.25)
    for score in (xeb_score, heavy_output_test):
        with pytest.raises(NotADistribution, match="not an array of reals"):
            score(uniform, "a")
    with pytest.raises(InvalidParams, match="lengths: 3 is not a sequence"):
        rb_experiment(3, 2)
    for survivals in ("a", [[1]]):
        with pytest.raises(InvalidParams, match="not all reals"):
            rb_fit([1, 2, 4], survivals)
    with pytest.raises(InvalidParams, match="sequence length"):
        rb_fit([1, 2.5, 4], [1.0, 0.9, 0.8])
    with pytest.raises(InvalidParams, match="MAX_RB_CYCLES = 10000000"):
        rb_experiment([1], 10 ** 12)
    with pytest.raises(InvalidParams, match="MAX_RB_CYCLES"):
        rb_experiment([10 ** 9], 1)
    with pytest.raises(InvalidParams, match="MAX_QV_CIRCUITS = 10000"):
        quantum_volume(NoNoise(), 2, 10 ** 12)
    dm = DensityMatrix.basis(1, 0)
    with pytest.raises(InvalidParams, match="MAX_SHOTS"):
        sample_measurements(dm, 10 ** 30)
    with pytest.raises(InvalidParams, match="MAX_SHOTS"):
        state_tomography_1q(lambda: dm, 10 ** 30, seed=0)
    # The bounds are inclusive.
    assert sample_measurements(dm, MAX_SHOTS, seed=0).tolist() == [MAX_SHOTS, 0]
    monkeypatch.setattr(protocols, "MAX_RB_CYCLES", 2 * (2 + 5))
    assert rb_experiment((1, 4), 2, seed=0).shape == (2,)
    with pytest.raises(InvalidParams, match="21 RB cycles"):
        rb_experiment((1, 4), 3, seed=0)
    monkeypatch.setattr(protocols, "MAX_QV_CIRCUITS", 3)
    assert quantum_volume(NoNoise(), 2, 3, seed=0) == 4
    with pytest.raises(InvalidParams, match="circuits_per_size: 4"):
        quantum_volume(NoNoise(), 2, 4, seed=0)
