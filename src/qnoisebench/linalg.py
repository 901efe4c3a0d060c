"""Dense complex matrix helpers used by the simulator.

Everything operates on plain ``numpy.ndarray`` values with complex128 dtype.
The functions here are thin, but they pin down the numerical tolerances the
rest of the package relies on (hermiticity and unitarity checks at 1e-9).
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NotHermitian

HERMITICITY_TOL = 1e-9


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def kron_all(mats) -> np.ndarray:
    out = np.eye(1, dtype=np.complex128)
    for m in mats:
        out = np.kron(out, as_complex(m))
    return out


def adjoint(a: np.ndarray) -> np.ndarray:
    return as_complex(a).conj().T


def max_abs(a: np.ndarray) -> float:
    """Largest entrywise magnitude (the distance norm used for gate synthesis)."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    a = as_complex(a)
    return a.shape[0] == a.shape[1] and max_abs(a - a.conj().T) <= tol


def hermitian_eigenvalues(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    a = as_complex(a)
    if not is_hermitian(a, tol):
        raise NotHermitian(f"matrix deviates from Hermitian by more than {tol}")
    return np.linalg.eigvalsh(a)


def is_unitary(u: np.ndarray, tol: float = 1e-9) -> bool:
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return max_abs(u.conj().T @ u - np.eye(u.shape[0])) <= tol


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


def phase_canonical_keys(mats: np.ndarray) -> list[bytes]:
    """Byte keys equal for matrices differing only by a global phase.

    The phase anchor is the first entry of (rounded) maximal magnitude, so
    float drift below the rounding scale cannot flip the anchor choice.
    """
    flat = mats.reshape(len(mats), -1)
    mags = np.round(np.abs(flat), 9)
    pick = np.argmax(mags, axis=1)
    anchor = flat[np.arange(len(flat)), pick]
    canon = flat / (anchor / np.abs(anchor))[:, None]
    parts = np.round(canon.view(np.float64), 6) + 0.0
    return [row.tobytes() for row in parts]
