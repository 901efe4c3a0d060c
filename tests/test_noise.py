"""Noise channels: fast implementations against explicit Kraus sums."""

import numpy as np
import pytest

from qnoisebench.circuits import (Circuit, Cycle, compile_plan, simulate,
                                  to_pauli)
from qnoisebench.errors import InvalidParams, UnknownLevel
from qnoisebench.gates import I2, H, Gate, embed_unitary
from qnoisebench.metrics import average_gate_fidelity
from qnoisebench.noise import (
    NOISE_KINDS,
    AmplitudeDamping,
    CoherentNoise,
    NoNoise,
    PauliNoise,
    PauliPlusCoherent,
    PhaseDamping,
    apply_channel_all,
    kraus_operators,
    noise_level_table,
    noise_model_for,
)
from qnoisebench.protocols import quantum_volume, rb_experiment
from qnoisebench.states import DensityMatrix

rng = np.random.default_rng(2024)


def random_density(n):
    dim = 2 ** n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def kraus_apply(rho, model, q, n):
    """Independent oracle: explicit sum K rho K^dagger with embedded Kraus ops."""
    out = np.zeros_like(rho)
    for k in kraus_operators(model):
        full = embed_unitary(k, (q,), n)
        out += full @ rho @ full.conj().T
    return out


ALL_MODELS = [
    NoNoise(),
    PauliNoise(0.02, 0.01, 0.03),
    PauliNoise.symmetric(0.03),
    CoherentNoise("z", 0.2),
    CoherentNoise("x", 0.15),
    PauliPlusCoherent(0.05, 0.1),
    AmplitudeDamping(0.3),
    PhaseDamping(0.2),
]


@pytest.mark.parametrize("model", ALL_MODELS)
def test_kraus_completeness(model):
    ops = kraus_operators(model)
    total = sum(k.conj().T @ k for k in ops)
    np.testing.assert_allclose(total, I2, atol=1e-12)


def kraus_apply_all(rho, model, n, first=0):
    """The oracle on every qubit, visited from qubit `first` on (wrapping):
    channels on distinct qubits commute, so the order must not matter."""
    for q in np.roll(np.arange(n), -first):
        rho = kraus_apply(rho, model, q, n)
    return rho


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("q", [0, 1, 2])
def test_fast_channel_matches_kraus_sum(model, q):
    """`q` is the qubit the oracle starts from."""
    rho = random_density(3)
    fast = apply_channel_all(rho, model, 3)
    slow = kraus_apply_all(rho, model, 3, q)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_channel_preserves_trace_and_positivity(model):
    rho = random_density(2)
    out = apply_channel_all(rho, model, 2)
    assert abs(np.trace(out) - 1.0) < 1e-12
    eigs = np.linalg.eigvalsh(out)
    assert eigs.min() > -1e-12


def test_amplitude_damping_on_excited_state():
    # |1><1| decays to gamma |0><0| + (1-gamma) |1><1|.
    g = 0.4
    rho = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    out = apply_channel_all(rho, AmplitudeDamping(g), 1)
    np.testing.assert_allclose(out, np.diag([g, 1 - g]), atol=1e-14)


def test_amplitude_damping_shrinks_coherence():
    g = 0.4
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    out = apply_channel_all(plus, AmplitudeDamping(g), 1)
    assert abs(out[0, 1] - 0.5 * np.sqrt(1 - g)) < 1e-14
    assert abs(out[0, 0] - (0.5 + 0.5 * g)) < 1e-14


def test_phase_damping_shrinks_off_diagonal():
    lam = 0.3
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    out = apply_channel_all(plus, PhaseDamping(lam), 1)
    assert abs(out[0, 1] - 0.5 * (1 - 2 * lam)) < 1e-14
    np.testing.assert_allclose(np.diag(out), [0.5, 0.5], atol=1e-14)


def test_coherent_z_rotates_coherence_phase():
    theta = 0.25
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    out = apply_channel_all(plus, CoherentNoise("z", theta), 1)
    assert abs(out[0, 1] - 0.5 * np.exp(2j * theta)) < 1e-14


def test_pauli_plus_coherent_order_is_rotate_then_flip():
    model = PauliPlusCoherent(0.1, 0.3)
    rho = random_density(1)
    rotated = apply_channel_all(rho, CoherentNoise("x", model.theta), 1)
    expected = 0.9 * rotated + 0.1 * apply_channel_all(
        rotated, PauliNoise(1.0, 0.0, 0.0), 1
    )
    got = apply_channel_all(rho, model, 1)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_apply_channel_all_hits_every_qubit():
    model = AmplitudeDamping(0.2)
    rho = random_density(2)
    expected = kraus_apply_all(rho, model, 2)
    np.testing.assert_allclose(apply_channel_all(rho, model, 2), expected, atol=1e-13)


def test_nonoise_is_identity():
    rho = random_density(2)
    np.testing.assert_allclose(apply_channel_all(rho, NoNoise(), 2), rho)


# ---------------------------------------------------------------------------
# Strength ladder.


def test_level_table_pauli():
    m = noise_level_table("pauli", 2)
    assert isinstance(m, PauliNoise)
    np.testing.assert_allclose([m.ex, m.ey, m.ez], [0.02 / 3] * 3)
    m0 = noise_level_table("pauli", 0)
    assert (m0.ex, m0.ey, m0.ez) == (0.0, 0.0, 0.0)


def test_level_table_coherent():
    m = noise_level_table("coherent", 3)
    assert m.axis == "z"
    assert abs(m.theta - np.pi / 10) < 1e-15


def test_level_table_pauli_coherent():
    m = noise_level_table("pauli_coherent", 1)
    assert abs(m.ex - 0.01) < 1e-15
    assert abs(m.theta - np.pi / 30) < 1e-15


def test_level_table_amplitude_damping():
    assert noise_level_table("amplitude_damping", 2).gamma == 0.02


def test_level_zero_acts_as_identity():
    rho = random_density(2)
    for kind in NOISE_KINDS:
        out = apply_channel_all(rho, noise_level_table(kind, 0), 2)
        np.testing.assert_allclose(out, rho, atol=1e-14)


def test_noise_model_for_fine_sweeps():
    m = noise_model_for("pauli", 0.03)
    assert abs(m.ex + m.ey + m.ez - 0.03) < 1e-15
    assert noise_model_for("coherent", 0.1).theta == 0.1
    pc = noise_model_for("pauli_coherent", 0.03)
    assert abs(pc.theta - np.pi / 10) < 1e-15
    assert isinstance(noise_model_for("none", 0.0), NoNoise)


# ---------------------------------------------------------------------------
# Validation.


def test_pauli_probabilities_must_fit():
    with pytest.raises(InvalidParams):
        PauliNoise(0.5, 0.5, 0.5).validate()
    with pytest.raises(InvalidParams):
        PauliNoise(-0.1, 0.0, 0.0).validate()


def test_non_finite_parameters_rejected():
    """A NaN probability fails validation in every model, so it never
    reaches the simulator, where it would come out as an all-NaN state, a
    NaN gate fidelity and NaN RB survivals."""
    nan = float("nan")
    models = [PauliNoise(nan, 0.0, 0.0), PauliNoise(0.0, nan, 0.0),
              PauliNoise(0.0, 0.0, nan), PauliNoise(float("inf"), 0.0, 0.0),
              PauliPlusCoherent(nan, 0.1), PauliPlusCoherent(0.1, nan),
              CoherentNoise("x", nan), AmplitudeDamping(nan),
              PhaseDamping(nan)]
    for model in models:
        with pytest.raises(InvalidParams):
            model.validate()
    bad = PauliNoise(nan, 0.0, 0.0)
    circ = Circuit(1, (Cycle((Gate.h(0),)),))
    for call in (lambda: simulate(circ, DensityMatrix.basis(1, 0), bad),
                 lambda: average_gate_fidelity(H, bad),
                 lambda: rb_experiment((1, 2), 2, bad, seed=0)):
        with pytest.raises(InvalidParams):
            call()


def _run_plan_under(noise):
    circ = Circuit(1, (Cycle((Gate.h(0),)),))
    v = to_pauli(DensityMatrix.basis(1, 0).matrix[None], 1)
    return compile_plan(circ).run(v, noise)


NOT_A_MODEL_CALLS = {
    "simulate": lambda: simulate(Circuit(1, (Cycle((Gate.h(0),)),)),
                                 DensityMatrix.basis(1, 0), None),
    "quantum_volume": lambda: quantum_volume(None),
    "average_gate_fidelity": lambda: average_gate_fidelity(H, None),
    "rb_experiment": lambda: rb_experiment([1, 2, 3], 2, "x"),
    "plan.run": lambda: _run_plan_under("pauli"),
}


@pytest.mark.parametrize("call", NOT_A_MODEL_CALLS.values(),
                         ids=NOT_A_MODEL_CALLS)
def test_a_noise_that_is_not_a_model_is_rejected(call):
    """A noise that is not a NoiseModel ends typed where `CircuitPlan.run`
    takes it, not as an AttributeError from its missing `validate`."""
    with pytest.raises(InvalidParams, match="not a NoiseModel"):
        call()


NOT_REAL_CALLS = {
    "pauli": lambda: PauliNoise("a", 0, 0).validate(),
    "pauli bool": lambda: PauliNoise(True, 0, 0).validate(),
    "pauli_coherent": lambda: PauliPlusCoherent(0.1, "a").validate(),
    "coherent": lambda: CoherentNoise("x", "a").validate(),
    "amplitude_damping": lambda: AmplitudeDamping("a").validate(),
    "phase_damping": lambda: PhaseDamping(None).validate(),
    "noise_model_for": lambda: noise_model_for("pauli", "x"),
}


@pytest.mark.parametrize("call", NOT_REAL_CALLS.values(), ids=NOT_REAL_CALLS)
def test_a_parameter_that_is_not_a_real_number_is_rejected(call):
    """A string, None or bool channel parameter ends as InvalidParams, not
    as a TypeError from a range check or a bool taken as 0 or 1."""
    with pytest.raises(InvalidParams, match="not a real number"):
        call()


def test_coherent_axis_restricted():
    with pytest.raises(InvalidParams):
        CoherentNoise("y", 0.1).validate()


def test_damping_rates_bounded():
    with pytest.raises(InvalidParams):
        AmplitudeDamping(1.5).validate()
    with pytest.raises(InvalidParams):
        PhaseDamping(-0.2).validate()


def test_unknown_kind_and_level_rejected():
    with pytest.raises(UnknownLevel):
        noise_level_table("thermal", 1)
    with pytest.raises(UnknownLevel):
        noise_level_table("pauli", 4)
    with pytest.raises(UnknownLevel):
        noise_model_for("thermal", 0.1)


@pytest.mark.parametrize("level", [1.5, True, "1"])
def test_a_level_that_is_not_an_integer_is_rejected(level):
    """A float, bool or string level is no level: True is not level 1."""
    with pytest.raises(UnknownLevel):
        noise_level_table("pauli", level)
