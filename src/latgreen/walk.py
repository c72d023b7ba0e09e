"""Monte Carlo oracle: geometrically killed nearest-neighbour random walk.

A walk started at the origin survives each step with probability
``1/(1+a^2)`` (equivalently, its length is geometric), and its expected
number of visits to ``x`` equals ``(1+a^2)`` times the lattice Green
function.  Visits are tallied inside a cubic window; walks that leave the
window keep running because they may return, only the tallying is windowed.

Walks advance in vectorized batches with per-step Bernoulli killing.  Each
batch draws from its own Philox (counter-based) stream keyed by
``(seed, batch_index)``, so the merged tallies are independent of batch
execution order and bit-reproducible for a fixed config.  The draws do not
depend on the window: a larger window gives the same tallies at every point
of a smaller one.

The tally is sparse.  Each in-window step of a walk records one int64 key
``flat * batch + walk`` (``flat`` is the point's index in the window, row
major).  Sorting a batch's keys puts the visits of one walk to one point in
a run; the run lengths are the per-walk visit counts ``c``, and summing
``c`` and ``c^2`` over the runs of each point gives the batch's tallies.
Batches are merged over the points visited so far.  Memory therefore scales
with the number of in-window steps of one batch plus the number of visited
points, never with the window volume ``(2 max_box + 1)^d``; the window is
limited only by the key range (``WalkConfig`` refuses windows whose keys
could overflow int64).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError


_BATCH = 20_000
# Largest expected number of walk steps, n_walks (1 + a^2) / a^2, that one
# ensemble may take.  The largest ensemble in the acceptance suite (d = 3,
# a = 0.05, 10^5 walks) expects 4.0e7 steps and runs in a few seconds.
_WALK_STEP_BUDGET = 5 * 10 ** 7


@dataclass(frozen=True)
class WalkConfig:
    """Walk ensemble parameters.

    The per-step death probability is ``a^2/(1+a^2)``; ``max_box`` is the
    tally window half-width in the sup norm.  An ensemble whose expected
    number of steps ``n_walks (1+a^2)/a^2`` exceeds ``_WALK_STEP_BUDGET`` is
    refused with ``ConfigError``.
    """

    d: int
    a: float
    n_walks: int
    seed: int
    max_box: int

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise DomainError("d must be an integer >= 1")
        if not np.isfinite(self.a) or self.a <= 0.0:
            raise DomainError("a must be > 0 (the walk never dies at a = 0)")
        if self.n_walks < 1:
            raise ConfigError("n_walks must be >= 1")
        if self.n_walks > 10 ** 12:
            raise ConfigError("n_walks too large for exact int64 tallies")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in 64 bits")
        if self.max_box < 0:
            raise ConfigError("max_box must be >= 0")
        if (2 * self.max_box + 1) ** self.d * _BATCH >= 2 ** 63:
            raise ConfigError("max_box too large: tally keys would overflow int64")
        a2 = self.a * self.a
        steps = self.n_walks * (1.0 + 1.0 / a2) if a2 > 0.0 else math.inf
        if steps > _WALK_STEP_BUDGET:
            raise ConfigError(
                f"{self.n_walks} walks at a = {self.a!r} expect {steps:.3g} steps, "
                f"over the budget of {_WALK_STEP_BUDGET:.3g}"
            )

    @property
    def death_probability(self):
        return self.a * self.a / (1.0 + self.a * self.a)


@dataclass(frozen=True)
class VisitEstimate:
    """Sample mean and standard error of per-walk visit counts at a point."""

    x: tuple
    mean: float
    std_err: float
    n_walks: int


def _batch_rng(cfg, batch_index):
    key = np.array([cfg.seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _strides(d, side):
    """Row-major window strides: flat index ``sum((x_i + b) * stride_i)``."""
    return side ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _run_starts(sorted_keys):
    """Index of the first element of each run of equal keys."""
    new = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    return np.flatnonzero(new)


def _run_batch(cfg, batch_index, n_walks):
    """Tally one batch over the window points it visited.

    Returns ``(flat, sums, sq_sums)``: the visited flat window indices in
    increasing order, and per point the sum over walks of the visit count
    ``c`` and of ``c^2``.
    """
    d, b = cfg.d, cfg.max_box
    strides = _strides(d, 2 * b + 1)
    rng = _batch_rng(cfg, batch_index)
    p_die = cfg.death_probability

    # Row 0 of ``state`` is each live walk's key, flat * n_walks + walk; rows
    # 1..d its coordinates.  Move m adds column m of ``shift`` to a walk's
    # state.  Keys of walks outside the window may wrap around in int64, but
    # only keys inside are recorded, and those fit (see WalkConfig).
    moves = np.arange(2 * d)
    shift = np.zeros((d + 1, 2 * d), dtype=np.int64)
    shift[1 + (moves >> 1), moves] = 2 * (moves & 1) - 1
    shift[0] = shift[1:].T @ strides * n_walks
    start_keys = int(b * strides.sum()) * n_walks + np.arange(n_walks, dtype=np.int64)
    keys = [start_keys]  # every walk starts (and is seen) at 0
    state = np.zeros((d + 1, n_walks), dtype=np.int64)
    state[0] = start_keys
    while state.shape[1]:
        survive = rng.random(state.shape[1]) >= p_die
        state = state.take(np.flatnonzero(survive), axis=1)
        state += shift.take(rng.integers(0, 2 * d, size=state.shape[1]), axis=1)
        inside = np.logical_and.reduce(np.abs(state[1:]) <= b, axis=0)
        keys.append(state[0, inside])

    keys = np.concatenate(keys)
    keys.sort()
    start = _run_starts(keys)
    visits = np.diff(start, append=keys.size)  # c of one walk at one point
    flat = keys[start] // n_walks
    start = _run_starts(flat)
    sums = np.add.reduceat(visits, start)
    sq_sums = np.add.reduceat(visits * visits, start)
    return flat[start], sums, sq_sums


def run_killed_walks(cfg):
    """Run the ensemble and tally visits inside the window.

    Returns
    -------
    dict mapping lattice point (tuple of ints) to VisitEstimate, containing
    exactly the points visited at least once.  Deterministic for a fixed
    config: the batch streams are keyed by (seed, batch index) and merged by
    commutative addition.
    """
    d, b = cfg.d, cfg.max_box
    flat = sums = sq_sums = np.zeros(0, dtype=np.int64)
    remaining = cfg.n_walks
    batch_index = 0
    while remaining > 0:
        take = min(_BATCH, remaining)
        f, s, s2 = _run_batch(cfg, batch_index, take)
        flat = np.concatenate((flat, f))
        order = np.argsort(flat, kind="stable")  # merges two sorted runs
        flat = flat[order]
        start = _run_starts(flat)
        sums = np.add.reduceat(np.concatenate((sums, s))[order], start)
        sq_sums = np.add.reduceat(np.concatenate((sq_sums, s2))[order], start)
        flat = flat[start]
        remaining -= take
        batch_index += 1

    n = cfg.n_walks
    coords = flat[:, None] // _strides(d, 2 * b + 1) % (2 * b + 1) - b
    out = {}
    for i, point in enumerate(map(tuple, coords.tolist())):
        mean = sums[i] / n
        if n > 1:
            var = (sq_sums[i] - n * mean * mean) / (n - 1)
            std_err = math.sqrt(max(var, 0.0) / n)
        else:
            std_err = 0.0
        out[point] = VisitEstimate(
            x=point, mean=float(mean), std_err=float(std_err), n_walks=n
        )
    return out


def estimate_green(cfg, x, tallies=None):
    """Green-function estimate at one point: visits divided by ``1+a^2``.

    Points never visited give a degenerate (0, 0) estimate; ``x`` must lie
    inside the tally window.  ``tallies``, if given, is
    ``run_killed_walks(cfg)``: several points can be looked up in one
    ensemble instead of running it once per point.
    """
    point = tuple(int(c) for c in np.asarray(x).ravel())
    if len(point) != cfg.d:
        raise DomainError(f"x must have {cfg.d} coordinates")
    if any(abs(c) > cfg.max_box for c in point):
        raise DomainError("x lies outside the tally window")
    if tallies is None:
        tallies = run_killed_walks(cfg)
    scale = 1.0 + cfg.a * cfg.a
    est = tallies.get(point)
    if est is None:
        return VisitEstimate(x=point, mean=0.0, std_err=0.0, n_walks=cfg.n_walks)
    return VisitEstimate(
        x=point,
        mean=est.mean / scale,
        std_err=est.std_err / scale,
        n_walks=est.n_walks,
    )


def kill_time_survival(cfg, n_max):
    """Empirical survival counts: walks taking at least n steps, n <= n_max.

    Uses the same per-step Bernoulli killing as the tally runs (separate
    streams); ``counts[n] / n_walks`` estimates ``(1/(1+a^2))^n``.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    counts = np.zeros(n_max + 1, dtype=np.int64)
    p_die = cfg.death_probability
    remaining = cfg.n_walks
    batch_index = 0
    while remaining > 0:
        take = min(_BATCH, remaining)
        rng = _batch_rng(cfg, 2 ** 32 + batch_index)
        # every live walk has taken the same number of steps, so the number
        # of survivors is all that counts[n] needs; walks past n_max are not
        # followed
        live = take
        counts[0] += live
        for n in range(1, n_max + 1):
            live = int(np.count_nonzero(rng.random(live) >= p_die))
            if live == 0:
                break
            counts[n] += live
        remaining -= take
        batch_index += 1
    return counts
