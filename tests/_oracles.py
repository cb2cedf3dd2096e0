"""Independent reference implementations used to pin expected values.

Everything here is written from the defining formulas, on purpose
without reusing package code, so tests compare two separate routes to
the same number.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)


def uniform_noise_capacity(p_s: float, n: int = 4) -> float:
    """Capacity of the symmetric channel: diagonal p_s, uniform noise."""
    f = (1.0 - p_s) / (n - 1)
    c = np.log2(n)
    if p_s > 0.0:
        c += p_s * np.log2(p_s)
    if f > 0.0:
        c += (1.0 - p_s) * np.log2(f)
    return c


def split_channel_capacity_4(p_s: float) -> float:
    """Two noiseless symbols plus a binary symmetric pair (diag 2p_s-1)."""
    return np.log2(2.0 + 2.0 ** (1.0 - binary_entropy(2.0 * (1.0 - p_s))))


def split_channel_capacity_3(p_s: float) -> float:
    """One noiseless symbol plus a binary symmetric pair (diag (3p_s-1)/2)."""
    return np.log2(1.0 + 2.0 ** (1.0 - binary_entropy(1.5 * (1.0 - p_s))))


def bound_channel(n: int, which: str, p_s: float) -> np.ndarray:
    """Bound channel p[y, x] of n symbols at average success p_s.

    "lower": diagonal p_s, (1 - p_s)/(n - 1) elsewhere, for p_s in [1/n, 1].
    "upper": a binary symmetric pair with diagonal (n p_s - n + 2)/2, then
    n - 2 noiseless symbols, for p_s in [(n - 2)/n, 1].
    """
    if which == "lower":
        p = np.full((n, n), (1.0 - p_s) / (n - 1))
        np.fill_diagonal(p, p_s)
        return p
    d = (n * p_s - n + 2) / 2
    p = np.eye(n)
    p[:2, :2] = [[d, 1.0 - d], [1.0 - d, d]]
    return p


def binary_channel_capacity(p: np.ndarray) -> float:
    """Closed-form capacity of a nonsingular 2x2 channel p[y, x] in bits.

    With H(x) the entropy of row p(. | x), solve sum_y p(y | x) b(y) =
    -H(x); then C = log2 sum_y 2^b(y), the square-channel formula
    (Muroga 1953), whose optimal input is interior for every such channel.
    """
    w = np.asarray(p, dtype=float).T
    h = -np.sum(np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0),
                axis=1)
    return float(np.log2(np.sum(2.0 ** np.linalg.solve(w, -h))))


def divergences(px: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(x) = sum_y p(y|x) log2(p(y|x) / q(y)) in bits, q = output of px.

    The bracket of a capacity solve is sum_x px(x) D(x) <= C <= max_x D(x).
    """
    w = np.asarray(p, dtype=float).T
    q = np.asarray(px, dtype=float) @ w
    # where q(y) = 0, w = 0 too, and the masked branch evaluates 0 * inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0) / q),
                        0.0).sum(axis=1)


def simplex_grid(n: int, steps: int) -> np.ndarray:
    """All probability vectors of length n on a 1/steps grid, times steps.

    Stars and bars: n - 1 bars among steps + n - 1 slots split the steps
    into n counts, the gaps between consecutive bars.
    """
    bars = np.array(list(itertools.combinations(range(steps + n - 1), n - 1)),
                    dtype=float).reshape(-1, n - 1)
    edges = np.column_stack([np.full(len(bars), -1.0), bars,
                             np.full(len(bars), float(steps + n - 1))])
    return np.diff(edges, axis=1) - 1.0


def mutual_information_rows(px_rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """I(X;Y) in bits for each input distribution row; t is p[y, x]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logt = np.where(t > 0.0, np.log2(np.where(t > 0.0, t, 1.0)), 0.0)
    h_y_given_x = -np.sum(t * logt, axis=0)
    py = px_rows @ t.T
    with np.errstate(divide="ignore", invalid="ignore"):
        logpy = np.where(py > 0.0, np.log2(np.where(py > 0.0, py, 1.0)), 0.0)
    h_y = -np.sum(py * logpy, axis=1)
    return h_y - px_rows @ h_y_given_x


def grid_capacity(t: np.ndarray, steps: int = 100) -> float:
    """Brute-force capacity: max mutual information over a simplex grid."""
    t = np.asarray(t, dtype=float)
    px_rows = simplex_grid(t.shape[1], steps) / steps
    return float(mutual_information_rows(px_rows, t).max())


def blahut_arimoto(p: np.ndarray, tol_bits: float = 1e-10,
                   max_iterations: int = 100_000) -> tuple:
    """Reference capacity solve of one channel p[y, x], a plain loop.

    Returns (capacity_bits, input_distribution, iterations, converged).
    Iterates r(x) -> r(x) exp(D(x)) / norm, D(x) = sum_y p(y|x) ln(p(y|x)
    / q(y)), until max_x D(x) - sum_x r(x) D(x) < tol_bits; if the cap is
    hit first the last lower bound and the r it was computed at are returned.
    """
    w = np.asarray(p, dtype=float).T
    n = w.shape[0]
    positive = w > 0.0
    safe_w = np.where(positive, w, 1.0)
    log_w = np.log(safe_w)
    tol_nats = tol_bits * math.log(2.0)

    r = np.full(n, 1.0 / n)
    i_low = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        # reductions, not matmuls, summed in the package solver's order: the
        # two agree bit for bit, whichever BLAS kernel numpy loaded
        q = (r[:, None] * w).sum(axis=0)
        safe_q = np.where(q > 0.0, q, 1.0)
        d = np.where(positive, w * (log_w - np.log(safe_q)), 0.0).sum(axis=1)
        i_low = float((r * d).sum())
        i_up = float(d.max())
        if i_up - i_low < tol_nats:
            converged = True
            break
        if iterations == max_iterations:
            break
        r = r * np.exp(d - d.max())
        r /= r.sum()
    capacity = max(i_low / math.log(2.0), 0.0)
    return capacity, r, iterations, converged


# --- closed-form channels ----------------------------------------------------
# p[y, x] written from the physics of each imperfection, with no Bell-ket,
# encoding or pair table: messages are indexed Phi+, Phi-, Psi+, Psi-.

def pair_flip_probability(eps_theta: float, eps_phi: float) -> float:
    """Probability that a tilted, phased pair is read as its sign partner.

    The pair cos(pi/4 + t)|a> - e^(i p) sin(pi/4 + t)|b> keeps a share
    |cos(pi/4 + t) + e^(i p) sin(pi/4 + t)|^2 / 2 = (1 + cos 2t cos p)/2
    of the ideal (|a> - |b>)/sqrt(2); the rest is the Bell state of the
    opposite sign, which every encoding and the readout carry to the
    message of the opposite sign: Phi+ <-> Phi- and Psi+ <-> Psi-.
    """
    return (1.0 - math.cos(2.0 * eps_theta) * math.cos(eps_phi)) / 2.0


def _swap_channel(q: float, swapped) -> np.ndarray:
    """Identity, except that each message x in swapped is read as its sign
    partner x ^ 1 (0 <-> 1, 2 <-> 3) with probability q."""
    p = np.eye(4)
    for x in swapped:
        partner = x ^ 1
        p[x, x], p[partner, x] = 1.0 - q, q
    return p


def source_channel(eps_theta_spin: float, eps_phi_spin: float, lambda_spin: float,
                   eps_theta_orbit: float, eps_phi_orbit: float,
                   lambda_orbit: float, accidental_fraction: float = 0.0) -> np.ndarray:
    """Channel of a source with tilt, phase and white noise on each degree
    of freedom, an ideal analyzer and an accidental floor.

    Each pair's sign flips on its own, and the message's sign flips when
    exactly one of them does: q = q_s (1 - q_o) + q_o (1 - q_s).  A white
    noise weight lam leaves a uniformly random message with probability
    lam, so it maps p to (1 - lam) p + lam / 4; accidentals act the same way.
    """
    q_s = pair_flip_probability(eps_theta_spin, eps_phi_spin)
    q_o = pair_flip_probability(eps_theta_orbit, eps_phi_orbit)
    p = _swap_channel(q_s * (1.0 - q_o) + q_o * (1.0 - q_s), range(4))
    for lam in (lambda_spin, lambda_orbit, accidental_fraction):
        p = (1.0 - lam) * p + lam / 4.0
    return p


def pbs_phase_channel(phi1: float, phi2: float) -> np.ndarray:
    """Channel of the ideal source through PBS reflection phases alone.

    They put a relative phase phi1 + phi2 between the two terms of a Phi
    message, so Phi+ <-> Phi- with probability |1 - e^(i(phi1 + phi2))|^2
    / 4 = sin^2((phi1 + phi2)/2); a Psi message keeps to its own pairs.
    """
    return _swap_channel(math.sin(0.5 * (phi1 + phi2)) ** 2, (0, 1))


def crosstalk_channel(eps_H: float, eps_V: float, phi1: float = 0.0,
                      phi2: float = 0.0) -> np.ndarray:
    """Channel of the ideal source through PBS crosstalk and reflection phases.

    Against the ideal analyzer, each photon's PBS acts on its orbit alone,
    conditioned on its polarization: a real rotation with cos = sqrt(1 -
    eps_H) for H, and for V e^(i (phi1 + phi2)/2) times the rotation with
    cos = sqrt(1 - eps_V) whose diagonal carries e^(+-i delta), delta =
    (phi1 - phi2)/2.  Acting on the orbit pair (|lr> + |rl>)/sqrt(2):

    * Phi messages, both photons in one polarization: the pair keeps an
      amplitude a = 1 - 2 eps_H (H) or b = 1 - 2 eps_V (V) and moves
      2 s_H, s_H = sqrt(eps_H (1 - eps_H)), to (|ll> - |rr>)/sqrt(2), or
      2 s_V to the phased e^(i delta)|ll> - e^(-i delta)|rr>, which reads as
      a Psi message.  The H and V terms recombine with the relative phase
      Phi = phi1 + phi2: Phi+ goes to ((a^2 + b^2 +- 2 a b cos Phi)/4 for
      Phi+-, s_H^2 + s_V^2 +- 2 s_H s_V cos(delta) cos Phi for Psi+-).
    * Psi messages, one photon in each polarization: the pair keeps
      t e^(i delta) + r, t = sqrt((1 - eps_H)(1 - eps_V)), r = sqrt(eps_H
      eps_V), and with u = sqrt(eps_H (1 - eps_V)), v = sqrt((1 - eps_H)
      eps_V) leaks u cos(delta) - v and u sin(delta) to the two Phi
      messages.  Phi = phi1 + phi2 is a global phase here.

    Phi- and Psi- sent read as Phi+ and Psi+ sent with every received sign
    swapped.  At eps_H = eps_V = 0 this is pbs_phase_channel.
    """
    a, b = 1.0 - 2.0 * eps_H, 1.0 - 2.0 * eps_V
    s_H, s_V = math.sqrt(eps_H * (1.0 - eps_H)), math.sqrt(eps_V * (1.0 - eps_V))
    t, r = math.sqrt((1.0 - eps_H) * (1.0 - eps_V)), math.sqrt(eps_H * eps_V)
    u, v = math.sqrt(eps_H * (1.0 - eps_V)), math.sqrt((1.0 - eps_H) * eps_V)
    big, delta = phi1 + phi2, 0.5 * (phi1 - phi2)
    phi_same = (a * a + b * b + 2.0 * a * b * math.cos(big)) / 4.0
    phi_flip = (a * a + b * b - 2.0 * a * b * math.cos(big)) / 4.0
    psi_plus = s_H * s_H + s_V * s_V + 2.0 * s_H * s_V * math.cos(delta) * math.cos(big)
    psi_minus = s_H * s_H + s_V * s_V - 2.0 * s_H * s_V * math.cos(delta) * math.cos(big)
    keep = t * t + r * r + 2.0 * t * r * math.cos(delta)
    leak = (u * math.cos(delta) - v) ** 2
    side = (u * math.sin(delta)) ** 2
    # column x is the message sent
    return np.array([[phi_same, phi_flip, psi_plus, psi_minus],
                     [phi_flip, phi_same, psi_minus, psi_plus],
                     [side, leak, keep, 0.0],
                     [leak, side, 0.0, keep]]).T


def symmetric_capacity(p: np.ndarray) -> float:
    """Capacity in bits of a 4-message channel whose rows are permutations
    of one another, and so are its columns: log2 4 - H(row), reached by
    the uniform input (Cover & Thomas, 2nd ed., sec. 7.2)."""
    row = np.asarray(p, dtype=float)[0]
    row = row[row > 0.0]
    return float(2.0 + np.sum(row * np.log2(row)))


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_channel(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random column-stochastic matrix p[y, x]."""
    t = rng.random(size=(n, n))
    return t / t.sum(axis=0, keepdims=True)


def spin_marginal(rho: np.ndarray) -> np.ndarray:
    """Reduced 4x4 state of the two spins, orbit traced out (HH, HV, VH, VV).

    Subsystem order of the 16-dim state: (spin1, orbit1, spin2, orbit2).
    """
    t = np.asarray(rho, dtype=complex).reshape([2] * 8)
    return np.einsum(t, [0, 1, 2, 3, 4, 1, 6, 3], [0, 2, 4, 6]).reshape(4, 4)


def orbit_marginal(rho: np.ndarray) -> np.ndarray:
    """Reduced 4x4 state of the two orbital modes, spin traced out."""
    t = np.asarray(rho, dtype=complex).reshape([2] * 8)
    return np.einsum(t, [0, 1, 2, 3, 0, 5, 2, 7], [1, 3, 5, 7]).reshape(4, 4)


def pair_model_density(which: str, eps_theta: float, eps_phi: float,
                       lam: float) -> np.ndarray:
    """Depolarized model pair state (1 - lam)|m><m| + lam I/4.

    spin:  |m> = cos(pi/4 + t)|HH> - e^(i p) sin(pi/4 + t)|VV>
    orbit: |m> = cos(pi/4 + t)|lr> + e^(i p) sin(pi/4 + t)|rl>
    """
    first, last, sign = {"spin": (0, 3, -1.0), "orbit": (1, 2, 1.0)}[which]
    m = np.zeros(4, dtype=complex)
    m[first] = np.cos(np.pi / 4 + eps_theta)
    m[last] = sign * np.exp(1j * eps_phi) * np.sin(np.pi / 4 + eps_theta)
    return (1.0 - lam) * np.outer(m, m.conj()) + lam * np.eye(4) / 4.0


def source_density(eps_theta_spin: float, eps_phi_spin: float, lambda_spin: float,
                   eps_theta_orbit: float, eps_phi_orbit: float,
                   lambda_orbit: float) -> np.ndarray:
    """16x16 source: spin pair (x) orbit pair, reordered to (s1, o1, s2, o2)."""
    rho = np.kron(pair_model_density("spin", eps_theta_spin, eps_phi_spin, lambda_spin),
                  pair_model_density("orbit", eps_theta_orbit, eps_phi_orbit,
                                     lambda_orbit))
    # kron order is (s1, s2, o1, o2) on each side of the matrix
    t = rho.reshape([2] * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return t.reshape(16, 16)


def analyzer_unitary(eps_H: float, eps_V: float, phi1: float,
                     phi2: float) -> np.ndarray:
    """One photon's hologram, diag(1, -1, 1, -1) on (Hl, Hr, Vl, Vr), then
    the PBS: a rotation by the crosstalk amplitude on the H block and a
    phased one on the V block, ports (a, b) in the (Ha, Hb, Va, Vb) basis."""
    tH, rH = np.sqrt(1.0 - eps_H), np.sqrt(eps_H)
    tV, rV = np.sqrt(1.0 - eps_V), np.sqrt(eps_V)
    e12 = np.exp(0.5j * (phi1 + phi2))
    zero = np.zeros((2, 2))
    pbs = np.block([[np.array([[tH, -rH], [rH, tH]]), zero],
                    [zero, np.array([[e12 * rV, -np.exp(1j * phi2) * tV],
                                     [np.exp(1j * phi1) * tV, e12 * rV]])]])
    return pbs @ np.diag([1.0, -1.0, 1.0, -1.0])


# --- the analyzer, in the Schroedinger picture --------------------------------

# Single-photon spin-orbit Bell kets phi+, phi-, psi+, psi- as rows, in the
# (Hl, Hr, Vl, Vr) basis: README's Conventions table.
_BELL_ROWS = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0],
                       [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]]) / math.sqrt(2.0)
# The sender's Pauli on photon-2 spin for Phi+, Phi-, Psi+, Psi-: Z, I, XZ, X.
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.diag([1.0, -1.0])
_SENDER_PAULIS = (_PAULI_Z, np.eye(2), _PAULI_X @ _PAULI_Z, _PAULI_X)


def _pair_probabilities(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """[x, k]: probability that message x, encoded on the 16x16 source rho
    and sent through the one-photon analyzer u on each photon, is detected
    as Bell pair k (photon-1 label major), the image of that pair under
    the ideal analyzer."""
    u0 = analyzer_unitary(0.0, 0.0, 0.0, 0.0)
    pairs = np.kron(u0, u0) @ np.kron(_BELL_ROWS, _BELL_ROWS).T
    u2 = np.kron(u, u)
    out = np.zeros((4, 16))
    for x, pauli in enumerate(_SENDER_PAULIS):
        # subsystem order (spin1, orbit1, spin2, orbit2)
        k = np.kron(np.eye(4), np.kron(pauli, np.eye(2)))
        analyzed = u2 @ k @ rho @ k.conj().T @ u2.conj().T
        out[x] = np.einsum("ik,ij,jk->k", pairs.conj(), analyzed, pairs).real
    return out


def _pair_messages() -> np.ndarray:
    """[k, m] = 1 when message m's ideal encoded state reaches pair k: each
    message reaches four pairs, with probability 1/4 each, and no pair
    is reached by two."""
    ideal = _pair_probabilities(source_density(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                                analyzer_unitary(0.0, 0.0, 0.0, 0.0))
    reached = ideal > 0.125
    assert np.allclose(ideal[reached], 0.25) and np.allclose(ideal[~reached], 0.0)
    assert np.array_equal(reached.sum(axis=0), np.ones(16))
    return reached.T.astype(float)


_PAIR_MESSAGES = _pair_messages()


def schroedinger_transfer_matrix(eps_theta_spin: float, eps_phi_spin: float,
                                 lambda_spin: float, eps_theta_orbit: float,
                                 eps_phi_orbit: float, lambda_orbit: float,
                                 eps_H: float, eps_V: float, phi1: float,
                                 phi2: float) -> np.ndarray:
    """p[y, x] of the source and analyzer with these knobs: each encoded
    16x16 state is evolved by the two-photon analyzer, read in the ideal
    analyzer's pair basis, and its pair probabilities are summed into the
    message that reaches each pair ideally.  No check, clip or
    renormalization."""
    rho = source_density(eps_theta_spin, eps_phi_spin, lambda_spin,
                         eps_theta_orbit, eps_phi_orbit, lambda_orbit)
    u = analyzer_unitary(eps_H, eps_V, phi1, phi2)
    return (_pair_probabilities(rho, u) @ _PAIR_MESSAGES).T


def check_density(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Assert rho is hermitian with unit trace and no eigenvalue below
    -1e-9; return it as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    assert np.max(np.abs(rho - rho.conj().T)) <= tol
    assert abs(np.trace(rho) - 1.0) <= tol
    assert np.linalg.eigvalsh(rho).min() >= -1e-9
    return rho


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    return float(np.trace(rho @ rho).real)


def linear_entropy(rho: np.ndarray) -> float:
    """(d/(d-1)) (1 - Tr(rho^2)): 0 for pure states, 1 for the fully mixed one."""
    d = rho.shape[0]
    return d / (d - 1) * (1.0 - purity(rho))


def tangle(rho: np.ndarray) -> float:
    """Two-qubit tangle: the square of Wootters' concurrence.

    The concurrence is max(0, l1 - l2 - l3 - l4), with l_i the square
    roots, largest first, of the eigenvalues of rho (Y x Y) rho* (Y x Y),
    taken here as those of the hermitian sqrt(rho) (Y x Y) rho* (Y x Y)
    sqrt(rho), which has the same spectrum.
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])
    flipped = yy @ rho.conj() @ yy
    roots = np.sqrt(np.clip(np.linalg.eigvalsh(sqrt_rho @ flipped @ sqrt_rho),
                            0.0, None))[::-1]
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3]) ** 2
