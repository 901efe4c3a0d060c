"""Benchmarking protocols: tomography, randomized benchmarking, cross-entropy
scoring, heavy-output testing and quantum volume."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuits import (PARAM_ROTATIONS, Circuit, CircuitPlan, Cycle,
                       compile_plan, pauli_diagonals, product_pauli)
from .errors import (FitDiverged, InvalidParams, NotADistribution,
                     ZeroIdealProbability)
from .gates import FIXED_MATRICES, Gate, H, SDG, WordTable, word_table
from .linalg import phase_canonical_keys
from .noise import NoNoise, NoiseModel
from .states import DensityMatrix, check_count, diagonal_distribution


# ---------------------------------------------------------------------------
# Single-qubit state tomography.


@dataclass(frozen=True)
class TomographyResult:
    s: tuple[float, float, float, float]
    raw: np.ndarray
    reconstructed: DensityMatrix


_SIGMA_X = FIXED_MATRICES["x"]
_SIGMA_Y = FIXED_MATRICES["y"]
_SIGMA_Z = FIXED_MATRICES["z"]


def _basis_probs(rho: np.ndarray, rotation: np.ndarray | None) -> np.ndarray:
    if rotation is not None:
        rho = rotation @ rho @ rotation.conj().T
    return np.clip(np.diag(rho).real, 0.0, 1.0)


def project_psd(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace to 1."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0.0:
        raise InvalidParams("reconstruction has no positive weight")
    vals /= total
    return (vecs * vals) @ vecs.conj().T


def state_tomography_1q(prepare: Callable[[], DensityMatrix],
                        shots_per_basis: int | None = None,
                        seed: int | None = None) -> TomographyResult:
    """Estimate S0..S3 from Z-, X- and Y-basis measurements and rebuild rho.

    X-basis measurement is H then Z-measure; Y-basis is Sdg, H, then
    Z-measure. shots_per_basis=None uses exact probabilities; otherwise each
    basis is sampled independently. Sampled reconstructions can be non-PSD:
    raw keeps the linear inversion, reconstructed is its PSD projection.
    """
    if shots_per_basis is not None:
        check_count("shots_per_basis", shots_per_basis)
    rng = np.random.default_rng(seed)
    expectations = []
    for rotation in (None, H, H @ SDG):
        rho = prepare().matrix
        probs = _basis_probs(rho, rotation)
        if shots_per_basis is not None:
            counts = rng.multinomial(shots_per_basis, probs / probs.sum())
            probs = counts / shots_per_basis
        expectations.append(float(probs[0] - probs[1]))
    s3, s1, s2 = expectations
    s = (1.0, s1, s2, s3)
    raw = 0.5 * (s[0] * np.eye(2) + s1 * _SIGMA_X + s2 * _SIGMA_Y
                 + s3 * _SIGMA_Z)
    return TomographyResult(s, raw, DensityMatrix(project_psd(raw)))


# ---------------------------------------------------------------------------
# The 24-element single-qubit Clifford group as words in {h, s}.


def _clifford_table() -> WordTable:
    table = word_table(("h", "s")).closure()
    if len(table.words) != 24:
        raise InvalidParams(f"clifford closure has {len(table.words)} elements")
    return table


def clifford_group() -> tuple[tuple[np.ndarray, ...], tuple[str, ...]]:
    """The 24 single-qubit Cliffords and their {h, s} words."""
    table = _clifford_table()
    return tuple(table.mats), tuple("".join(w) for w in table.words)


@functools.cache
def _clifford_cayley() -> tuple[list[list[int]], list[int]]:
    """The Cayley table of `_clifford_table()`, product[i][j] the index of
    mats[i] @ mats[j] up to phase, and each element's inverse, built once so
    that RB multiplies exact indices, not floats."""
    table = _clifford_table()
    products = (table.mats[:, None] @ table.mats[None]).reshape(-1, 2, 2)
    product = np.array([table.index.get(key, -1)
                        for key in phase_canonical_keys(products)])
    if (product < 0).any():
        raise InvalidParams("clifford closure is not closed under products")
    product = product.reshape(len(table.mats), -1)
    # Index 0 is the identity, the empty word.
    return product.tolist(), np.argmax(product == 0, axis=1).tolist()


def rb_sequence_indices(m: int, rng: np.random.Generator) -> list[int]:
    """m uniform Clifford indices plus the index inverting their product."""
    product, inverse = _clifford_cayley()
    picks = rng.integers(0, 24, size=m).tolist()
    net = 0  # the identity
    for i in picks:
        net = product[i][net]
    return picks + [inverse[net]]


# ---------------------------------------------------------------------------
# Randomized benchmarking.


@dataclass(frozen=True)
class RBResult:
    lengths: tuple[int, ...]
    survivals: tuple[float, ...]
    a: float
    b: float
    r: float
    residual: float
    degenerate: bool = False


def rb_experiment(lengths: Sequence[int], sequences_per_length: int = 50,
                  noise: NoiseModel | None = None,
                  seed: int | None = None) -> np.ndarray:
    """Mean |0> survival per sequence length.

    Each sequence is m uniform Cliffords plus the group inverse of their
    product; the noise channel fires once after every Clifford. The
    sequences of one length run as one batch of |0> Pauli vectors through a
    one-qubit `CircuitPlan`: its letters are the drawn Clifford indices, its
    table the 24 Clifford unitaries, and its one segment all m + 1 cycles.
    """
    for m in lengths:
        check_count("sequence length", m)
    check_count("sequences_per_length", sequences_per_length)
    noise = noise if noise is not None else NoNoise()
    cliffords = _clifford_table().mats
    rng = np.random.default_rng(seed)
    start = product_pauli(np.tile([1.0, 0.0], (sequences_per_length, 1, 1)))
    means = []
    for m in lengths:
        letters = np.array([rb_sequence_indices(m, rng)
                            for _ in range(sequences_per_length)])
        plan = CircuitPlan(1, letters[:, :, None], cliffords,
                           ((0, m + 1, ((),)),))
        means.append(pauli_diagonals(plan.run(start, noise), 1)[:, 0].mean())
    return np.asarray(means)


def rb_fit(lengths: Sequence[int], survivals: Sequence[float],
           max_residual: float = 0.05) -> RBResult:
    """Fit survival = A(1-2r)^m + B with A, B in [0,1] and r in [0, 0.5].

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973):
    for each r the best (A, B) is a two-column least-squares problem with a
    closed form, so only r is searched, on a grid over [0, 0.5] and then by
    golden section around the best grid point.
    """
    lengths = tuple(int(m) for m in lengths)
    survivals = tuple(float(f) for f in survivals)
    if len(survivals) != len(lengths):
        raise InvalidParams(
            f"{len(lengths)} sequence lengths but {len(survivals)} survivals")
    if not np.isfinite(survivals).all():
        raise InvalidParams(f"survivals {survivals} are not all finite")
    if len(set(lengths)) < 3:
        raise InvalidParams("need at least 3 distinct sequence lengths")
    ms = np.asarray(lengths, dtype=np.float64)
    fs = np.asarray(survivals, dtype=np.float64)
    if np.ptp(fs) < 1e-9:
        return RBResult(lengths, survivals, 0.0, float(fs.mean()), 0.0, 0.0,
                        degenerate=True)

    def fit(r):
        return _rb_linear_fit((1.0 - 2.0 * np.asarray(r))[..., None] ** ms, fs)

    grid = np.linspace(0.0, 0.5, _RB_GRID)
    k = int(np.argmin(fit(grid)[2]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _RB_GRID - 1)]
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = fit(c)[2], fit(d)[2]
    while hi - lo > 1e-13:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = fit(c)[2]
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = fit(d)[2]
    r = c if fc <= fd else d
    a, b, residual = (float(x) for x in fit(r))
    if residual > max_residual:
        raise FitDiverged(f"rb fit residual {residual} exceeds {max_residual}")
    return RBResult(lengths, survivals, a, b, float(r), residual)


_RB_GRID = 501
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _rb_linear_fit(x: np.ndarray, fs: np.ndarray) -> tuple:
    """Per row of x (..., L): the (A, B) in [0, 1]^2 minimizing
    sum (A x + B - fs)^2, and that sum. The minimum is the unconstrained one
    if it lies in the box, else the best of the four edges, each a 1-D
    problem solved by clipping."""
    n = fs.size
    sxx, sx = (x * x).sum(-1), x.sum(-1)
    sxf, sf = (x * fs).sum(-1), fs.sum()
    det = n * sxx - sx * sx
    zero, one = np.zeros_like(sx), np.ones_like(sx)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.stack([(n * sxf - sx * sf) / det, zero, one,
                      np.clip(np.where(sxx > 0, sxf / sxx, 0.0), 0.0, 1.0),
                      np.clip(np.where(sxx > 0, (sxf - sx) / sxx, 0.0), 0.0, 1.0)])
        b = np.stack([(sxx * sf - sx * sxf) / det,
                      np.clip(sf / n * one, 0.0, 1.0),
                      np.clip((sf - sx) / n, 0.0, 1.0), zero, one])
        inside = (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
        res = np.where(inside,
                       ((a[..., None] * x + b[..., None] - fs) ** 2).sum(-1),
                       np.inf)
    k = np.argmin(res, axis=0)[None]
    return tuple(np.take_along_axis(arr, k, axis=0)[0] for arr in (a, b, res))


# ---------------------------------------------------------------------------
# Cross-entropy scoring.

EULER_GAMMA = float(np.euler_gamma)
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class XEBResult:
    h0: float
    cross_entropy: float
    delta_h: float
    alpha: float


def xeb_score(ideal_probs: np.ndarray,
              samples_or_dist: np.ndarray) -> XEBResult:
    """Cross-entropy difference of a test distribution (or samples) against
    ideal circuit probabilities, in nats.

    H0 = ln N + Euler gamma. A float array is a full distribution; an integer
    array is outcome samples scored with the alpha estimator.
    """
    p_u = np.asarray(ideal_probs, dtype=np.float64)
    n = p_u.size
    h0 = float(np.log(n) + EULER_GAMMA)
    arr = np.asarray(samples_or_dist)
    if np.issubdtype(arr.dtype, np.integer):
        _check_outcomes(arr, n)
        picked = p_u[arr]
        if np.any(picked < PROB_FLOOR):
            raise ZeroIdealProbability("sampled outcome has zero ideal probability")
        cross = float(-np.mean(np.log(picked)))
    else:
        p_a = np.asarray(arr, dtype=np.float64)
        if p_a.shape != p_u.shape:
            raise ZeroIdealProbability(
                f"distribution length {p_a.size} does not match {n}")
        mask = p_a > 0.0
        if np.any(p_u[mask] < PROB_FLOOR):
            raise ZeroIdealProbability("test mass on zero ideal probability")
        cross = float(-np.sum(p_a[mask] * np.log(p_u[mask])))
    delta = h0 - cross
    return XEBResult(h0, cross, delta, delta)


# ---------------------------------------------------------------------------
# Heavy outputs and quantum volume.


@dataclass(frozen=True)
class HeavyOutputResult:
    heavy_set: tuple[int, ...]
    heavy_prob: float
    passed: bool


def heavy_output_test(ideal_probs: np.ndarray,
                      test: np.ndarray) -> HeavyOutputResult:
    """Mass of a test distribution (or samples) on outcomes strictly above
    the median ideal probability; passes above 2/3."""
    p_u = np.asarray(ideal_probs, dtype=np.float64)
    heavy = np.nonzero(p_u > np.median(p_u))[0]
    arr = np.asarray(test)
    if np.issubdtype(arr.dtype, np.integer):
        _check_outcomes(arr, p_u.size)
        prob = float(np.isin(arr, heavy).mean()) if arr.size else 0.0
    else:
        if arr.shape != p_u.shape:
            raise NotADistribution(
                f"test distribution of shape {arr.shape}, not {p_u.shape}")
        prob = float(np.asarray(arr, dtype=np.float64)[heavy].sum())
    return HeavyOutputResult(tuple(int(i) for i in heavy), prob,
                             prob > 2.0 / 3.0)


def _check_outcomes(samples: np.ndarray, n: int) -> None:
    """Raise NotADistribution unless every sample is an outcome in [0, n),
    which a negative index would otherwise wrap into."""
    if samples.size and not 0 <= samples.min() <= samples.max() < n:
        raise NotADistribution(f"samples outside the outcomes 0..{n - 1}")


def random_model_circuit(n_qubits: int, depth: int,
                         rng: np.random.Generator) -> Circuit:
    """Random scrambling circuit: each cycle pairs some qubits into CNOTs and
    gives every other qubit a uniform-angle rz or rx."""
    cycles = []
    for _ in range(depth):
        order = [int(q) for q in rng.permutation(n_qubits)]
        if n_qubits >= 4:
            npairs = n_qubits // 4
        else:
            npairs = 1 if (n_qubits >= 2 and rng.random() < 0.5) else 0
        gates = []
        for p in range(npairs):
            gates.append(Gate.cnot(order[2 * p], order[2 * p + 1]))
        for q in order[2 * npairs:]:
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            if rng.random() < 0.5:
                gates.append(Gate.rz(q, angle))
            else:
                gates.append(Gate.rx(q, angle))
        cycles.append(Cycle(tuple(gates)))
    return Circuit(n_qubits, tuple(cycles), PARAM_ROTATIONS)


def quantum_volume(noise: NoiseModel, max_m: int = 4,
                   circuits_per_size: int = 20,
                   seed: int | None = None) -> int:
    """Largest 2^m (m in 2..max_m, else 1) over square model circuits where
    the majority pass the heavy-output test under the given noise. Each
    circuit is compiled once; its ket pass gives the ideal distribution and
    its Pauli-vector pass the noisy one."""
    check_count("max_m", max_m)
    if not 2 <= max_m <= 8:
        raise InvalidParams(f"max_m: {max_m} outside 2..8, the desk scale")
    check_count("circuits_per_size", circuits_per_size)
    rng = np.random.default_rng(seed)
    best = 0
    for m in range(2, max_m + 1):
        ket = np.eye(1, 2 ** m, dtype=np.complex128)  # |0...0>
        start = product_pauli(np.tile([1.0, 0.0], (1, m, 1)))
        passes = 0
        for _ in range(circuits_per_size):
            plan = compile_plan(random_model_circuit(m, m, rng))
            ideal = np.abs(plan.run(ket)[0]) ** 2
            noisy = diagonal_distribution(
                pauli_diagonals(plan.run(start, noise), m)[0])
            if heavy_output_test(ideal, noisy).passed:
                passes += 1
        if passes > circuits_per_size // 2:
            best = m
    return 2 ** best
