"""The sources themselves: locations tau_k and vectors h_k fitted to the data.

The model y_j = sum_k exp(-2 pi i tau_k j) b_j^H h_k (X = sum_k h_k steering_k^T,
its exponentials the synthesizer's ``model.steering_matrix``) is linear in h.
``fit`` starts greedily (Newtonized OMP; Mamandipoor, Ramasamy & Madhow 2016) and
goes on by Gauss-Newton on (tau, Re h, Im h), h refit by least squares after each
step (variable projection; Golub & Pereyra 1973), restarts only from a merged pair
and ends on its best state.  Every pass sums over blocks of ``lowrank._BLOCK_ROWS``
rows, forming exp(-2 pi i tau j) once per block, so no n-row design is held.  The
fit works on y / 2**e and B / 2**f at unit scale, exact as h absorbs the power of two.
"""

from __future__ import annotations

import itertools

import numpy as np

from .hankel import _ldexp, _unit_exponent
from .lowrank import _BLOCK_ROWS
from .model import steering_matrix

# Oversampling of the greedy's grid: 4L points, L the next power of two >= n.
_GRID = 4
# The fit ends within its tol no earlier than _MIN_STEPS states after the greedy
# start's.  At n=65536 some instances meet the tolerance after one step: a second
# step sharpens their estimate or, at the rounding floor, ends the descent untried
# at its half (``_descend``'s tol).  So the fit's passes over the data, and its
# cost, do not hang on how close the greedy start came.
_MIN_STEPS = 2
# The least exponent (``_unit_exponent``) of h in the data's units at which an
# entry 2**-53 times its largest one is still a normal float, so that scaling
# h back from unit scale is exact to the last bit of every entry that counts.
_EXACT_EXPONENT = np.finfo(float).minexp + np.finfo(float).nmant + 2
# Gauss-Newton merges two sources much closer than 1/n into one location, where
# the descent stalls.  Spread to _SPLIT / n either side of their midpoint, the
# pair separates again: at s=4, r=5, 48 of the 53 pairs so merged in 28,800
# instances at n=256 and 6,000 at n=128 did, with any spread from 0.06 to 0.5;
# the other five lie 0.01/n apart or closer.  A pair 2 _SPLIT / n apart or more
# has not merged, and no restart from one (0.54-2.0/n apart) recovered a fit.
_SPLIT = 0.25


def _blocks(y: np.ndarray, B: np.ndarray, taus: np.ndarray):
    """Per block of rows j: their slice, j, y_j, conj(B)^T (m, s), exp(-2 pi i tau_k j) (m, r)."""
    for start in range(0, len(y), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        j = np.arange(len(y))[rows]
        yield rows, j, y[rows], B[:, rows].conj().T, steering_matrix(taus, j)


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
    del D, Dh  # the last block's design and its conjugate, not held through pass two
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


def fit(y: np.ndarray, B: np.ndarray, r: int, tol: float = 0.0):
    """Yield (taus, h, ||rho|| / ||y||) of r sources, h (r, s) in the data's units,
    for the greedy start and after each Gauss-Newton step.  Each of the r greedy
    rounds adds the point of the grid of _GRID * L points whose energy
    sum_a |sum_j exp(2 pi i tau j) B[a, j] rho_j|^2 is largest (s inverse FFTs), and
    takes one step of the descent (``_descend``) on all points so far; the last
    round's descent goes on as the fit.  Where it ends above tol on a merged pair
    (``split``), the fit restarts once from the split and ends on the better of the
    two ends, yielding the first again.  It ends at the first state within tol no
    earlier than _MIN_STEPS after the greedy start's.  ``ValueError`` on r < 1 or
    where scaling h back would not be exact (``_EXACT_EXPONENT``) or would overflow;
    ``LinAlgError`` on a singular Gram matrix (a repeated location, zero data)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    e, f = _unit_exponent(y), _unit_exponent(B)
    y, B = _ldexp(y, -e), _ldexp(B, -f)
    y_norm = np.linalg.norm(y)
    grid = _GRID << (len(y) - 1).bit_length()
    taus, rho = np.empty(0), y
    for _ in range(r):
        descent = _descend(y, B, np.append(taus, np.argmax(_energy(B, rho, grid)) / grid), tol)
        for taus, h, rho in itertools.islice(descent, 2):
            pass
    # iter(): the greedy's last state is not held once it has been read
    states, t, end = itertools.chain(iter([(taus, h, rho)]), descent), 0, None
    for restarted in (False, True):
        for taus, h, rho in states:
            if _unit_exponent(h) + e - f < _EXACT_EXPONENT:
                raise ValueError("the estimate underflows")
            rel = float(np.linalg.norm(rho) / y_norm)
            yield taus, _ldexp(h, e - f, "the estimate"), rel
            if rel <= tol and t >= _MIN_STEPS:
                return
            t += 1
        if restarted or rel <= tol or (spread := split(taus, len(y))) is None:
            break
        end, states = (taus, h, rel), _descend(y, B, spread, tol)
    if end is not None and end[2] < rel:  # the restart ended above the first descent
        yield end[0], _ldexp(end[1], e - f, "the estimate"), end[2]


def split(taus: np.ndarray, n: int) -> np.ndarray | None:
    """taus with its closest pair, on the circle, moved to _SPLIT / n either side of
    their midpoint: the restart of a fit whose descent merged two sources.  None for
    one location, or a closest pair 2 _SPLIT / n apart or more, unmerged."""
    gaps = (taus[None, :] - taus[:, None] + 0.5) % 1.0 - 0.5  # taus[b] - taus[a]
    a, b = np.unravel_index(np.argmin(np.abs(gaps) + np.eye(len(taus))), gaps.shape)
    if a == b or abs(gaps[a, b]) >= 2 * _SPLIT / n:
        return None
    middle, taus = taus[a] + gaps[a, b] / 2, np.array(taus, dtype=float)
    taus[a], taus[b] = (middle - _SPLIT / n) % 1.0, (middle + _SPLIT / n) % 1.0
    return taus


def signal(taus: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """X = sum_k h_k steering_k^T, (s, n), formed at h's unit scale and scaled back."""
    e = _unit_exponent(h)
    return _ldexp(_ldexp(h, -e).T @ steering_matrix(taus, np.arange(n)).T, e, "the estimate")
