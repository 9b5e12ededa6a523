"""The sources themselves: locations tau_k and vectors h_k fitted to the data.

The model y_j = sum_k exp(-2 pi i tau_k j) b_j^H h_k (X = sum_k h_k steering_k^T)
is linear in h.  ``fit`` runs Gauss-Newton on (tau, Re h, Im h) and refits h by
least squares after each step (variable projection; Golub & Pereyra 1973) from
``greedy_start`` (Newtonized OMP; Mamandipoor, Ramasamy & Madhow 2016), and
``split`` restarts a descent that merged two sources into one location.  Every
pass sums over blocks of ``lowrank._BLOCK_ROWS`` rows, forming exp(-2 pi i tau j)
once per block, so no n-row design is held.  Both work on y / 2**e and B / 2**f
at unit scale, which is exact: h absorbs the power of two.
"""

from __future__ import annotations

import itertools

import numpy as np

from .hankel import _ldexp, _unit_exponent
from .lowrank import _BLOCK_ROWS

# Oversampling of the greedy's grid: 4L points, L the next power of two >= n.
_GRID = 4
# The least exponent (``_unit_exponent``) of h in the data's units at which an
# entry 2**-53 times its largest one is still a normal float, so that scaling
# h back from unit scale is exact to the last bit of every entry that counts.
_EXACT_EXPONENT = np.finfo(float).minexp + np.finfo(float).nmant + 2
# Gauss-Newton merges two sources much closer than 1/n into one location, where
# the descent stalls.  Spread to _SPLIT / n either side of their midpoint, the
# pair separates again: at s=4, r=5, 48 of the 53 pairs so merged in 28,800
# instances at n=256 and 6,000 at n=128 did, with any spread from 0.06 to 0.5;
# the other five lie 0.01/n apart or closer.
_SPLIT = 0.25


def _blocks(y: np.ndarray, B: np.ndarray, taus: np.ndarray):
    """Per block of rows j: their slice, j, y_j, conj(B)^T (m, s), exp(-2 pi i tau_k j) (m, r)."""
    for start in range(0, len(y), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        j = np.arange(len(y))[rows]
        yield rows, j, y[rows], B[:, rows].conj().T, np.exp(-2j * np.pi * np.outer(j, taus))


def _design(E: np.ndarray, Bc: np.ndarray) -> np.ndarray:
    """A block of the design of h: column (k, a) is E[:, k] conj(B[a])."""
    return (E[:, :, None] * Bc[:, None, :]).reshape(len(E), -1)


def _solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G^-1 b with Jacobi scaling; ``LinAlgError`` on a singular Gram matrix G."""
    diagonal = G.diagonal().real
    if not np.all(diagonal > 0):
        raise np.linalg.LinAlgError("singular Gram matrix")
    d = 1.0 / np.sqrt(diagonal)
    x = (d * np.linalg.solve(G * np.outer(d, d), (d * b.T).T).T).T
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("singular Gram matrix")
    return x


def _linearize(y, B, taus):
    """Two passes at taus: h (r, s) refit by least squares with the design's Gram
    D^H D; then the residual rho = y - model at (taus, h) and, for the model's
    Jacobian K = [J_tau, D], J_tau^H K and K^H rho."""
    r, p = len(taus), len(taus) * B.shape[0]
    G, q = np.zeros((p, p), complex), np.zeros(p, complex)
    for _, _, yb, Bc, E in _blocks(y, B, taus):
        D = _design(E, Bc)
        Dh = D.conj().T
        G += Dh @ D
        q += Dh @ yb
    h = _solve(G, q).reshape(r, -1)
    rho = np.empty_like(y)
    top, rhs = np.zeros((r, r + p), complex), np.zeros(r + p, complex)
    for rows, j, yb, Bc, E in _blocks(y, B, taus):
        c = E * (Bc @ h.T)  # (m, r): exp(-2 pi i tau_k j) b_j^H h_k
        rb = rho[rows] = yb - c.sum(axis=1)
        K = np.concatenate([-2j * np.pi * j[:, None] * c, _design(E, Bc)], axis=1)
        top += K[:, :r].conj().T @ K
        rhs += K.conj().T @ rb
    return h, G, rho, top, rhs


def _step(G, top, rhs):
    """The tau block of the Gauss-Newton step on (tau, Re h, Im h), whose h block the
    refit replaces: with C = D^H D, Re(J^H J - J^H D C^-1 D^H J) dtau =
    Re(J^H rho - J^H D C^-1 D^H rho)."""
    r = top.shape[0]
    Z = _solve(G, np.column_stack([top[:, r:].conj().T, rhs[r:]]))
    S = (top[:, :r] - top[:, r:] @ Z[:, :r]).real
    return _solve(S, (rhs[:r] - top[:, r:] @ Z[:, r]).real)


def _descend(y, B, taus, tol=0.0):
    """Yield (taus, h, residual) of the refit at taus, then of each Gauss-Newton step
    that lowers the residual norm; a step that does not, or whose Gram matrix is
    singular, is halved once, then the descent ends, as it does where the step
    itself is singular.  From a residual norm at most tol times that of y a failed
    step is not halved: the estimate is already at the tolerance."""
    h, G, rho, top, rhs = _linearize(y, B, taus)
    bar = tol * np.linalg.norm(y)
    while True:
        yield taus, h, rho
        try:
            step = _step(G, top, rhs)
        except np.linalg.LinAlgError:
            return
        for fraction in (1.0,) if np.linalg.norm(rho) <= bar else (1.0, 0.5):
            trial = (taus + fraction * step) % 1.0
            try:
                linearized = _linearize(y, B, trial)
            except np.linalg.LinAlgError:
                continue
            if np.linalg.norm(linearized[2]) < np.linalg.norm(rho):
                break
        else:
            return
        taus, (h, G, rho, top, rhs) = trial, linearized


def _energy(B: np.ndarray, rho: np.ndarray, grid: int) -> np.ndarray:
    """sum_a |ifft(B[a] rho, grid)|^2.  Every transform writes into the same two
    buffers, where fresh arrays would fault in ~10 MB of pages per transform at
    n=65536."""
    energy, spectrum, power = np.zeros(grid), np.empty(grid, complex), np.empty(grid)
    for row in B:
        np.fft.ifft(row * rho, grid, out=spectrum)
        energy += np.square(np.abs(spectrum, out=power), out=power)
    return energy


def greedy_start(y: np.ndarray, B: np.ndarray, r: int) -> np.ndarray:
    """r locations, one per round: the point of the grid of _GRID * L points whose
    energy sum_a |sum_j exp(2 pi i tau j) B[a, j] rho_j|^2 in the residual rho is
    largest (s inverse FFTs), then one fit step on all picked so far."""
    y, B = _ldexp(y, -_unit_exponent(y)), _ldexp(B, -_unit_exponent(B))
    grid = _GRID << (len(y) - 1).bit_length()
    taus, rho = np.empty(0), y
    for _ in range(r):
        taus = np.append(taus, np.argmax(_energy(B, rho, grid)) / grid)
        for taus, _, rho in itertools.islice(_descend(y, B, taus), 2):
            pass
    return taus


def fit(y: np.ndarray, B: np.ndarray, taus: np.ndarray, tol: float = 0.0):
    """Gauss-Newton from ``taus``: yield (taus, h, ||rho|| / ||y||) for the refit at
    ``taus`` and after each step, h (r, s) in the data's units, until a step and
    its half fail to lower the residual, or a step alone once ||rho|| / ||y|| is at
    most ``tol``.  ``LinAlgError`` on a singular Gram matrix
    (a repeated location, zero data); ``ValueError`` where scaling h back would
    not be exact (``_EXACT_EXPONENT``) or would overflow."""
    e, f = _unit_exponent(y), _unit_exponent(B)
    y, B = _ldexp(y, -e), _ldexp(B, -f)
    y_norm = np.linalg.norm(y)
    for taus, h, rho in _descend(y, B, np.asarray(taus, dtype=float), tol):
        if _unit_exponent(h) + e - f < _EXACT_EXPONENT:
            raise ValueError("the estimate underflows")
        yield taus, _ldexp(h, e - f, "the estimate"), float(np.linalg.norm(rho) / y_norm)


def split(taus: np.ndarray, n: int) -> np.ndarray:
    """taus with its closest pair, on the circle, moved to _SPLIT / n either side of
    their midpoint: the restart of a fit whose descent merged two sources."""
    gaps = (taus[None, :] - taus[:, None] + 0.5) % 1.0 - 0.5  # taus[b] - taus[a]
    a, b = np.unravel_index(np.argmin(np.abs(gaps) + np.eye(len(taus))), gaps.shape)
    middle, taus = taus[a] + gaps[a, b] / 2, np.array(taus, dtype=float)
    taus[a], taus[b] = (middle - _SPLIT / n) % 1.0, (middle + _SPLIT / n) % 1.0
    return taus


def signal(taus: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """X = sum_k h_k steering_k^T, (s, n), formed at h's unit scale and scaled back."""
    e = _unit_exponent(h)
    E = np.exp(-2j * np.pi * np.outer(taus, np.arange(n)))
    return _ldexp(_ldexp(h, -e).T @ E, e, "the estimate")
