"""Classical channel capacity of the conditional-detection matrix.

The detection scheme turns each sent message x into a distribution over
detected messages y, i.e. a discrete memoryless channel.  Capacity is
computed with one Blahut-Arimoto loop, channel_capacity_stack, whose
every iteration takes the plain step p <- p exp(D - max D) / norm.  That
closes every near-ideal channel within WARM_UP iterations; from then on a
solve still open also tries an over-relaxed step from the same p, and
takes it only if it leaves the bracket I(p) <= C <= max_x D(x) narrower.
Every solve stops on that gap, and reports it, so a returned capacity is
certified to tol_bits.

bound_capacity bounds the achievable (success probability, capacity)
region of an n-message encoding, n = 3 or 4, in closed form.  Its lower
channel spreads the errors uniformly, meeting Fano's inequality with
equality (Cover & Thomas, Elements of Information Theory, 2nd ed., sec.
2.10); its upper channel puts every error into one binary symmetric pair
beside n - 2 noiseless symbols (the choice-of-channels rule, ibid. ch. 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import TransferMatrix, check_channel
from .states import PAIR_SIGNATURES, Message, _number

_LN2 = math.log(2.0)

# Most points bound_curve samples on one curve.
MAX_RESOLUTION = 10_000


def _prob_matrix(t) -> np.ndarray:
    if isinstance(t, TransferMatrix):
        return t.probabilities
    p = np.asarray(t, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"channel must be a square matrix, got shape {p.shape}")
    return check_channel(p)


def validate_input_distribution(px, n: int) -> np.ndarray:
    """px as a float array of n finite, non-negative entries summing to 1."""
    px = np.asarray(px, dtype=float).ravel()
    if px.shape != (n,):
        raise ValueError(f"input distribution must have {n} entries, got {px.shape}")
    if not np.isfinite(px).all():
        raise ValueError(f"input distribution must be finite, got {px}")
    if px.min() < 0.0:
        raise ValueError(f"input distribution has negative entry {px.min()}")
    total = px.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"input distribution sums to {total!r}, not 1")
    return px / total


def _divergences(w, log_w, r) -> tuple:
    """D(x) and I(r) in nats for a stack of channels w[k, x, y] = p(y | x).

    log_w is ln w, 0 where w = 0, and r has shape (k, m).  D(x) =
    sum_y w[x, y] (ln w[x, y] - ln q(y)) with q = sum_x r(x) w[x], taking
    ln q as 0 where q = 0 (no input in r reaches that output); returns d of
    shape (k, m) and I(r) = sum_x r(x) D(x) of shape (k,).  Every sum is a
    numpy reduction, not a matmul, so no BLAS kernel sets its rounding.
    """
    q = (r[:, :, None] * w).sum(axis=1)
    np.log(q, out=q, where=q > 0.0)
    d = (w * (log_w - q[:, None])).sum(axis=2)
    return d, (r * d).sum(axis=1)


def _step(w, log_w, r, ascent) -> tuple:
    """The point r exp(ascent) / norm, with its D(x) and I: (r, d, low)."""
    r = r * np.exp(ascent)
    r /= r.sum(axis=1, keepdims=True)
    return (r, *_divergences(w, log_w, r))


def mutual_information(px, t) -> float:
    """I(X;Y) in bits for input distribution px over the channel t.

    Zero-probability terms contribute zero (0*log 0 = 0 convention).  This
    is the solver's own I(p), from the same divergences D(x).
    """
    p = _prob_matrix(t)
    px = validate_input_distribution(px, p.shape[1])
    w = np.ascontiguousarray(p).T[None]  # w[0, x, y] = p(y | x), as in the solver
    low = _divergences(w, np.log(np.where(w > 0.0, w, 1.0)), px[None])[1]
    return float(low[0] / _LN2)


@dataclass(frozen=True)
class CapacityResult:
    """Capacity in bits, the optimal input distribution and solve statistics.

    gap_bits is max_x D(x) - I(p) at the returned distribution p: the
    capacity lies in [capacity_bits, capacity_bits + gap_bits].
    """

    capacity_bits: float
    input_distribution: np.ndarray
    iterations: int
    converged: bool
    gap_bits: float


def channel_capacity(t, tol_bits: float = 1e-10,
                     max_iterations: int = 100_000) -> CapacityResult:
    """Channel capacity in bits via Blahut-Arimoto.

    Alternates the backward step q(x|y) proportional to p(x) p(y|x) with
    the input update p(x) proportional to exp(sum_y p(y|x) ln q(x|y)).
    The per-iteration bracket I(p) <= C <= max_x D(x) gives a stopping
    rule: iterate until the gap falls below tol_bits.  From iteration
    WARM_UP on, an over-relaxed step is taken instead wherever it leaves
    a narrower gap than the plain step.  If the iteration cap is hit
    first, the current point is returned with converged=False.  This is
    channel_capacity_stack on one channel.
    """
    caps, r, iterations, converged, gaps = channel_capacity_stack(
        _prob_matrix(t)[None], tol_bits, max_iterations)
    return CapacityResult(float(caps[0]), r[0], int(iterations[0]),
                          bool(converged[0]), float(gaps[0]))


# Plain Blahut-Arimoto iterations before a still-open solve is over-relaxed;
# every solve that closes its gap within them is the plain loop's, bit for bit.
WARM_UP = 64
_MAX_RELAXATION = 64.0


def channel_capacity_stack(p, tol_bits: float = 1e-10,
                           max_iterations: int = 100_000) -> tuple:
    """channel_capacity for a stack of channels p[k, y, x], shape (n, m, m).

    Runs the Blahut-Arimoto update on every channel at once, from one
    current point r per channel; a channel leaves the active set when its
    own gap max_x D(x) - I(r) closes.  Every iteration computes the plain
    step r exp(D - max D) / norm.  From iteration WARM_UP on, each open
    channel also computes the relaxed step r exp(mu (D - max D)) / norm
    from the same r (Matz & Duhamel, ITW 2004), and moves to it only where
    its gap is strictly smaller.  Its mu, 2 at first, then doubles (up to
    64), and otherwise halves (down to 2: at 1 the two steps are one).  A
    channel still open after max_iterations returns its point, unconverged.
    Returns arrays
    (capacity_bits, input_distributions, iterations, converged, gap_bits)
    of shape (n,), (n, m), (n,), (n,) and (n,); the channels are not
    checked.
    """
    tol_bits = _number("tol_bits", tol_bits)
    if tol_bits <= 0.0:
        raise ValueError(f"tol_bits must be positive, got {tol_bits}")
    max_iterations = _number("max_iterations", max_iterations, 1, kind=int)
    # w[k, x, y] = p(y | x), a view of p in C order whatever order p came in:
    # numpy's sums and products round by memory layout, so this keeps a
    # channel's result independent of the stack it is solved in
    w = np.swapaxes(np.ascontiguousarray(p, dtype=float), 1, 2)
    n, m = w.shape[:2]
    # log 1 = 0 where w = 0, so those terms in D are 0 * finite = 0
    log_w = np.log(np.where(w > 0.0, w, 1.0))

    i_low, gaps = np.empty((2, n))
    dists = np.empty((n, m))
    iterations = np.empty(n, dtype=int)
    converged = np.empty(n, dtype=bool)
    active = np.arange(n)
    r = np.full((n, m), 1.0 / m)
    d, low = _divergences(w, log_w, r)
    mu = np.full(n, 2.0)  # each channel's relaxation
    for it in range(1, max_iterations + 1):
        d_max = d.max(axis=1)
        gap = d_max - low
        closed = gap < tol_bits * _LN2
        done = closed | (it == max_iterations)
        if done.any():
            leaving = active[done]
            i_low[leaving] = low[done]
            gaps[leaving] = gap[done]
            dists[leaving] = r[done]
            iterations[leaving] = it
            converged[leaving] = closed[done]
            active, w, log_w, r, d, d_max, low, gap, mu = (
                v[~done] for v in (active, w, log_w, r, d, d_max, low, gap, mu))
        if not active.size:
            break
        ascent = d - d_max[:, None]
        point = _step(w, log_w, r, ascent)  # the plain step
        if it >= WARM_UP:
            # the relaxed step from the same r, taken where its gap is smaller
            relaxed = _step(w, log_w, r, mu[:, None] * ascent)
            better = relaxed[1].max(axis=1) - relaxed[2] < point[1].max(axis=1) - point[2]
            for v, v_relaxed in zip(point, relaxed):
                v[better] = v_relaxed[better]
            mu = np.where(better, np.minimum(2.0 * mu, _MAX_RELAXATION), np.maximum(0.5 * mu, 2.0))
        r, d, low = point
    return np.maximum(i_low / _LN2, 0.0), dists, iterations, converged, gaps / _LN2


def average_success(t) -> float:
    """Mean of the diagonal: probability of detecting what was sent."""
    return float(_mean_diagonal(_prob_matrix(t)))


def _mean_diagonal(p) -> np.ndarray:
    """Mean of the diagonal over the last two axes of p, one channel or a stack."""
    return np.diagonal(p, axis1=-2, axis2=-1).mean(axis=-1)


def snr_per_message(counts) -> list:
    """Signal-to-noise ratio per sent message from a 4x16 counts table.

    Columns follow the canonical Bell-pair order (photon-1 label major).
    Signal is the sum over the sent message's own signature columns,
    noise is everything else in the row.  A row with zero noise has no
    finite ratio and is reported as None.
    """
    c = np.asarray(counts, dtype=float)
    if c.shape != (4, 16):
        raise ValueError(f"counts table must be 4x16, got {c.shape}")
    if not np.all(np.isfinite(c)) or c.min() < 0.0:
        raise ValueError("counts must be finite and non-negative")
    signal = np.diagonal(c @ PAIR_SIGNATURES)
    out = []
    for m in Message:
        total = c[m].sum()
        if total <= 0.0:
            raise ValueError(f"no counts recorded for sent message {m.label}")
        noise = total - signal[m]
        out.append(None if noise <= 0.0 else float(signal[m] / noise))
    return out


# --- bound curves -----------------------------------------------------------

def _check_curve(encoding: int, which: str) -> int:
    """encoding as an int; ValueError unless (encoding, which) names a curve."""
    encoding = _number("encoding", encoding, kind=int)
    if encoding not in (3, 4) or which not in ("lower", "upper"):
        raise ValueError(f"unknown curve ({encoding!r}, {which!r}); encoding must "
                         "be 3 or 4 and which must be 'lower' or 'upper'")
    return encoding


def _binary_entropy(q: float) -> float:
    """h(q) in bits, 0 at q = 0 and q = 1."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def bound_capacity(encoding: int, which: str, p_s: float) -> float:
    """Capacity in bits of n = encoding symbols' bound channel at success p_s.

    "lower": diagonal p_s, (1 - p_s)/(n - 1) elsewhere, p_s in [1/n, 1]:
    C = log2 n - h(p_s) - (1 - p_s) log2(n - 1).  "upper": a binary
    symmetric pair with diagonal d = (n p_s - n + 2)/2 beside n - 2
    noiseless symbols, p_s in [(n - 2)/n, 1]: C = log2(2^(1 - h(d)) + n - 2).
    Evaluated with math, not numpy, so no SIMD loop sets the rounding, and
    clamped at 0.
    """
    n = _check_curve(encoding, which)
    p_s = _number("p_s", p_s, 1.0 / n if which == "lower" else (n - 2) / n, 1)
    if which == "lower":
        c = math.log2(n) - _binary_entropy(p_s) - (1.0 - p_s) * math.log2(n - 1)
    else:
        d = (n * p_s - n + 2) / 2
        c = math.log2(2.0 ** (1.0 - _binary_entropy(d)) + n - 2)
    return max(c, 0.0)


def bound_curve(encoding: int, which: str, resolution: int = 50) -> np.ndarray:
    """Sample (p_s, capacity_bits) along one bound curve.

    encoding is n = 3 or 4, which is "lower" or "upper" (see
    bound_capacity).  Each curve is evaluated on the p_s range where its
    capacity rises monotonically to the noiseless limit: lower curves
    start at p_s = 1/n (uniform output, zero capacity), upper curves at
    p_s = (n - 1)/n, where the noisy pair carries nothing.
    """
    resolution = _number("resolution", resolution, 2, MAX_RESOLUTION, kind=int)
    encoding = _check_curve(encoding, which)
    start = 1.0 / encoding if which == "lower" else (encoding - 1) / encoding
    ps = np.linspace(start, 1.0, resolution)
    return np.column_stack([ps, [bound_capacity(encoding, which, p) for p in ps]])
