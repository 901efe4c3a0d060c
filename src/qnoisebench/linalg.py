"""Dense complex matrix helpers used by the simulator.

Everything operates on plain ``numpy.ndarray`` values with complex128 dtype.
The functions here are thin, but they pin down the numerical tolerances the
rest of the package relies on (the hermiticity check at 1e-9).
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NotHermitian

HERMITICITY_TOL = 1e-9


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def max_abs(a: np.ndarray) -> float:
    """Largest entrywise magnitude (the distance norm used for gate synthesis)."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    a = as_complex(a)
    return (a.shape[-1] == a.shape[-2]
            and max_abs(a - a.conj().swapaxes(-1, -2)) <= tol)


def hermitian_eigenvalues(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    a = as_complex(a)
    if not is_hermitian(a, tol):
        raise NotHermitian(f"matrix deviates from Hermitian by more than {tol}")
    return np.linalg.eigvalsh(a)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-abs distance between u and v after aligning a global phase.

    The phase is chosen to maximize Re tr(v^dag u), which is optimal in the
    Frobenius sense and an upper bound on the true max-abs optimum, so a small
    return value genuinely certifies closeness up to phase.
    """
    u, v = as_complex(u), as_complex(v)
    if u.shape != v.shape:
        raise DimMismatch(f"cannot compare {u.shape} and {v.shape}")
    ip = np.trace(v.conj().T @ u)
    phase = ip / abs(ip) if abs(ip) > 1e-300 else 1.0
    return max_abs(u - phase * v)


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    return phase_aligned_distance(u, v) <= tol


def phase_canonical_keys(mats: np.ndarray) -> np.ndarray:
    """Packed keys, one per matrix, equal for matrices differing only by a
    global phase.

    The phase anchor is the first entry of (rounded) maximal magnitude, so
    float drift below the rounding scale cannot flip the anchor choice. A key
    is the int32 row rint(1e6 * x) of the canonical float64 entries (the
    same equality as rounding to 6 decimals; entries must be at most ~2e3 in
    magnitude), viewed as one fixed-width void scalar so that keys sort and
    compare bytewise. `.tolist()` gives hashable `bytes` keys.
    """
    flat = mats.reshape(len(mats), -1)
    mags = np.abs(flat)
    pick = np.argmax(np.round(mags, 9, out=mags), axis=1)
    anchor = flat[np.arange(len(flat)), pick]
    parts = (flat / (anchor / np.abs(anchor))[:, None]).view(np.float64)
    parts *= 1e6
    parts = np.rint(parts, out=parts).astype(np.int32)
    return parts.view(np.dtype((np.void, parts.shape[1] * 4)))[:, 0]
