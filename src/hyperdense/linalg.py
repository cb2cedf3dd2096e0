"""Dense complex linear algebra and two-qubit entanglement metrics.

Everything here works on plain numpy arrays.  Kets are 1-d complex
vectors, density matrices are square complex arrays.  Dimensions are
small (at most 16), so no sparse or iterative machinery is used.
"""

from __future__ import annotations

import numpy as np

# Centralized tolerances.  Structural checks (hermiticity, trace, norm)
# use STRUCTURAL_TOL; eigenvalues of nominally PSD matrices may dip to
# NEGATIVE_EIGENVALUE_FLOOR before being treated as invalid.
STRUCTURAL_TOL = 1e-10
NEGATIVE_EIGENVALUE_FLOOR = -1e-9

_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two kets or two operators."""
    return np.kron(np.asarray(a), np.asarray(b))


def density_from_ket(psi) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| from a unit ket."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def validate_density_matrix(rho: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Check hermiticity, unit trace and positivity; return rho as complex array.

    Raises ValueError describing the first violated property.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > tol:
        raise ValueError(f"density matrix not hermitian (deviation {herm:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace {tr} is not 1")
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if eigs.min() < NEGATIVE_EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), in [1/dim, 1]."""
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def linear_entropy(rho: np.ndarray) -> float:
    """Normalized linear entropy (dim/(dim-1)) * (1 - Tr(rho^2)).

    The prefactor puts the fully mixed state at 1 for any dimension;
    for the two-qubit case (dim 4) it is 4/3.
    """
    d = np.asarray(rho).shape[0]
    return float(d / (d - 1) * (1.0 - purity(rho)))


def fidelity_with_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a state rho with a pure target ket."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex).ravel()
    if rho.shape[0] != psi.shape[0]:
        raise ValueError(
            f"dimension mismatch: rho is {rho.shape[0]}-dim, ket is {psi.shape[0]}-dim"
        )
    return float(np.real(psi.conj() @ rho @ psi))


def _wootters_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of rho (Y x Y) rho* (Y x Y).

    The product is non-hermitian but has real non-negative spectrum for
    a valid two-qubit state; small negative rounding is clamped to 0.
    """
    yy = np.kron(_PAULI_Y, _PAULI_Y)
    rho_tilde = yy @ rho.conj() @ yy
    vals = np.linalg.eigvals(rho @ rho_tilde)
    vals = np.real(vals)
    # exact zeros come back as O(1e-17) rounding noise, which the square
    # root would amplify to O(1e-9); flush them before clamping negatives
    vals[np.abs(vals) < 1e-12] = 0.0
    vals[vals < 0.0] = 0.0
    return np.sort(vals)[::-1]


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max(0, sqrt(l1)-sqrt(l2)-sqrt(l3)-sqrt(l4))."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence requires a 4x4 state, got shape {rho.shape}")
    roots = np.sqrt(_wootters_eigenvalues(rho))
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def tangle(rho: np.ndarray) -> float:
    """Square of the concurrence."""
    return concurrence(rho) ** 2
