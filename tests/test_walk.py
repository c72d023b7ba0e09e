"""Killed-walk Monte Carlo oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from latgreen import (
    ConfigError,
    DomainError,
    GreenParams,
    VisitEstimate,
    WalkConfig,
    estimate_green,
    green_bessel,
    green_d1_closed,
    kill_time_survival,
    run_killed_walks,
)
from latgreen.walk import _BATCH, _batch_rng, _run_batch


def dense_batch_tally(cfg, batch_index, n_walks):
    """Reference tally: a dense walks x window visit matrix (small windows)."""
    d, b = cfg.d, cfg.max_box
    side = 2 * b + 1
    strides = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    rng = _batch_rng(cfg, batch_index)
    visits = np.zeros((n_walks, side**d), dtype=np.int64)
    visits[:, int(b * strides.sum())] = 1
    pos = np.zeros((n_walks, d), dtype=np.int64)
    alive = np.arange(n_walks)
    while alive.size:
        alive = alive[rng.random(alive.size) >= cfg.death_probability]
        if not alive.size:
            break
        moves = rng.integers(0, 2 * d, size=alive.size)
        pos[alive, moves >> 1] += np.where(moves & 1, 1, -1)
        live_pos = pos[alive]
        inside = np.all(np.abs(live_pos) <= b, axis=1)
        flat = ((live_pos[inside] + b) * strides).sum(axis=1)
        np.add.at(visits, (alive[inside], flat), 1)
    return visits.sum(axis=0), (visits**2).sum(axis=0)


def dense_killed_walks(cfg):
    """Reference ensemble: dense batch tallies, same VisitEstimate arithmetic."""
    d, b, n = cfg.d, cfg.max_box, cfg.n_walks
    side = 2 * b + 1
    sums = np.zeros(side**d, dtype=np.int64)
    sq_sums = np.zeros(side**d, dtype=np.int64)
    for batch_index, start in enumerate(range(0, n, _BATCH)):
        s, s2 = dense_batch_tally(cfg, batch_index, min(_BATCH, n - start))
        sums += s
        sq_sums += s2
    out = {}
    for flat in np.nonzero(sums)[0]:
        point = tuple(int(c) - b for c in np.unravel_index(flat, (side,) * d))
        mean = sums[flat] / n
        std_err = 0.0
        if n > 1:
            var = (sq_sums[flat] - n * mean * mean) / (n - 1)
            std_err = math.sqrt(max(var, 0.0) / n)
        out[point] = VisitEstimate(
            x=point, mean=float(mean), std_err=float(std_err), n_walks=n
        )
    return out


def naive_kill_time_survival(cfg, n_max):
    """Reference survival counts: one pass over the walks per n."""
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for batch_index, start in enumerate(range(0, cfg.n_walks, _BATCH)):
        take = min(_BATCH, cfg.n_walks - start)
        rng = _batch_rng(cfg, 2**32 + batch_index)
        steps = np.zeros(take, dtype=np.int64)
        alive = np.ones(take, dtype=bool)
        while alive.any():
            survive = rng.random(int(alive.sum())) >= cfg.death_probability
            idx = np.nonzero(alive)[0]
            alive[idx[~survive]] = False
            steps[idx[survive]] += 1
            alive[steps >= n_max] = False
        for n in range(n_max + 1):
            counts[n] += int((steps >= n).sum())
    return counts


class TestConfig:
    def test_killing_probability(self):
        cfg = WalkConfig(d=2, a=0.5, n_walks=10, seed=0, max_box=2)
        assert cfg.death_probability == pytest.approx(0.25 / 1.25, rel=1e-15)
        assert 0.0 < cfg.death_probability < 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            WalkConfig(d=0, a=1.0, n_walks=10, seed=0, max_box=1)
        with pytest.raises(DomainError):
            WalkConfig(d=1, a=0.0, n_walks=10, seed=0, max_box=1)
        with pytest.raises(ConfigError):
            WalkConfig(d=1, a=1.0, n_walks=0, seed=0, max_box=1)
        with pytest.raises(ConfigError):
            WalkConfig(d=1, a=1.0, n_walks=10**13, seed=0, max_box=1)
        with pytest.raises(ConfigError):
            WalkConfig(d=1, a=1.0, n_walks=10, seed=-1, max_box=1)

    def test_window_limited_by_key_range(self):
        WalkConfig(d=3, a=1.0, n_walks=10, seed=0, max_box=10_000)
        with pytest.raises(ConfigError):
            WalkConfig(d=3, a=1.0, n_walks=10, seed=0, max_box=10_000_000)
        # (2b+1) * _BATCH must stay below 2^63 in d=1
        edge = (2**63 // _BATCH - 1) // 2
        WalkConfig(d=1, a=1.0, n_walks=10, seed=0, max_box=edge)
        with pytest.raises(ConfigError):
            WalkConfig(d=1, a=1.0, n_walks=10, seed=0, max_box=edge + 1)

    def test_step_budget(self):
        from latgreen.walk import _WALK_STEP_BUDGET

        # the largest ensemble in use: about 4.0e7 expected steps
        WalkConfig(d=3, a=0.05, n_walks=100_000, seed=0, max_box=30)
        # about 2.2e8 expected steps: more than 20 s of walking
        with pytest.raises(ConfigError, match="budget"):
            WalkConfig(d=1, a=0.003, n_walks=2_000, seed=0, max_box=3)
        # a^2 underflows to 0: the walks would never die
        with pytest.raises(ConfigError, match="budget"):
            WalkConfig(d=1, a=1e-300, n_walks=1, seed=0, max_box=3)
        # a^2 overflows: every walk dies at once
        WalkConfig(d=1, a=1e300, n_walks=10, seed=0, max_box=3)
        a = 0.5
        at_budget = int(_WALK_STEP_BUDGET * a * a / (1.0 + a * a))
        WalkConfig(d=1, a=a, n_walks=at_budget, seed=0, max_box=1)
        with pytest.raises(ConfigError):
            WalkConfig(d=1, a=a, n_walks=at_budget + 1, seed=0, max_box=1)


class TestRunKilledWalks:
    def test_seed_determinism(self):
        cfg = WalkConfig(d=2, a=0.8, n_walks=30_000, seed=99, max_box=2)
        t1 = run_killed_walks(cfg)
        t2 = run_killed_walks(cfg)
        assert set(t1) == set(t2)
        for k in t1:
            assert t1[k].mean == t2[k].mean
            assert t1[k].std_err == t2[k].std_err

    def test_different_seeds_differ(self):
        base = WalkConfig(d=1, a=0.5, n_walks=20_000, seed=1, max_box=2)
        other = WalkConfig(d=1, a=0.5, n_walks=20_000, seed=2, max_box=2)
        assert (
            run_killed_walks(base)[(0,)].mean
            != run_killed_walks(other)[(0,)].mean
        )

    def test_origin_mean_at_least_one(self):
        cfg = WalkConfig(d=3, a=2.0, n_walks=5_000, seed=3, max_box=1)
        assert run_killed_walks(cfg)[(0, 0, 0)].mean >= 1.0

    def test_against_closed_form_at_origin(self):
        cfg = WalkConfig(d=1, a=1.0, n_walks=100_000, seed=42, max_box=3)
        est = run_killed_walks(cfg)[(0,)]
        target = 2.0 / math.sqrt(3.0)  # (1+a^2) times the Green function
        assert abs(est.mean - target) <= 3.0 * est.std_err

    def test_against_quadrature_off_origin(self):
        cfg = WalkConfig(d=2, a=0.5, n_walks=100_000, seed=7, max_box=3)
        est = run_killed_walks(cfg)[(1, 1)]
        target = 1.25 * green_bessel(GreenParams(2, 0.5, 1.0), [1, 1]).value
        assert abs(est.mean - target) <= 3.0 * est.std_err

    @pytest.mark.parametrize(
        "d, a, n_walks, box",
        [(1, 0.3, 20_000, 3), (2, 0.5, 2 * _BATCH + 123, 2), (3, 0.3, 25_000, 2),
         (3, 1.0, 1, 1), (2, 0.4, 3_000, 0)],
    )
    def test_matches_dense_reference(self, d, a, n_walks, box):
        cfg = WalkConfig(d=d, a=a, n_walks=n_walks, seed=31, max_box=box)
        assert run_killed_walks(cfg) == dense_killed_walks(cfg)
        side = 2 * box + 1
        for batch_index in range(2):
            flat, sums, sq_sums = _run_batch(cfg, batch_index, min(n_walks, 4_000))
            s, s2 = dense_batch_tally(cfg, batch_index, min(n_walks, 4_000))
            assert np.all(np.diff(flat) > 0) and flat[-1] < side**d
            assert np.array_equal(flat, np.nonzero(s)[0])
            assert np.array_equal(sums, s[flat])
            assert np.array_equal(sq_sums, s2[flat])

    def test_window_independence(self):
        small = WalkConfig(d=3, a=0.5, n_walks=30_000, seed=8, max_box=3)
        large = WalkConfig(d=3, a=0.5, n_walks=30_000, seed=8, max_box=30)
        big = run_killed_walks(large)
        inner = {pt: est for pt, est in big.items() if max(map(abs, pt)) <= 3}
        assert inner == run_killed_walks(small)
        assert len(big) > len(inner)

    def test_huge_window_bounded_memory(self):
        # a dense visits matrix would need 2000 x 20001^3 entries
        cfg = WalkConfig(d=3, a=0.3, n_walks=2_000, seed=4, max_box=10_000)
        tracemalloc.start()
        try:
            tallies = run_killed_walks(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert tallies[(0, 0, 0)].mean >= 1.0

    def test_tallies_windowed(self):
        cfg = WalkConfig(d=1, a=0.2, n_walks=2_000, seed=11, max_box=2)
        tallies = run_killed_walks(cfg)
        assert all(abs(pt[0]) <= 2 for pt in tallies)


class TestEstimateGreen:
    def test_origin_d1(self):
        cfg = WalkConfig(d=1, a=1.0, n_walks=100_000, seed=42, max_box=3)
        est = estimate_green(cfg, (0,))
        want = green_d1_closed(1.0, 1, 0).value
        assert abs(est.mean - want) <= 3.0 * est.std_err
        assert est.mean == pytest.approx(0.57735, abs=0.01)

    def test_d3_against_bessel(self):
        cfg = WalkConfig(d=3, a=0.3, n_walks=100_000, seed=7, max_box=2)
        est = estimate_green(cfg, (1, 0, 0))
        want = green_bessel(GreenParams(3, 0.3, 1.0), [1, 0, 0]).value
        assert abs(est.mean - want) <= 3.0 * est.std_err

    def test_mirror_symmetry_within_ci(self):
        cfg = WalkConfig(d=1, a=0.4, n_walks=100_000, seed=13, max_box=3)
        plus = estimate_green(cfg, (2,))
        minus = estimate_green(cfg, (-2,))
        spread = math.hypot(plus.std_err, minus.std_err)
        assert abs(plus.mean - minus.mean) <= 3.0 * spread

    def test_unvisited_point_degenerate(self):
        cfg = WalkConfig(d=3, a=5.0, n_walks=100, seed=17, max_box=3)
        est = estimate_green(cfg, (3, 3, 3))
        assert isinstance(est, VisitEstimate)
        assert est.mean == 0.0
        assert est.std_err == 0.0

    def test_point_outside_window(self):
        cfg = WalkConfig(d=2, a=1.0, n_walks=100, seed=0, max_box=2)
        with pytest.raises(DomainError):
            estimate_green(cfg, (3, 0))


class TestKillTime:
    def test_survival_matches_geometric_law(self):
        a = 0.5
        cfg = WalkConfig(d=2, a=a, n_walks=100_000, seed=5, max_box=1)
        counts = kill_time_survival(cfg, 20)
        survive = 1.0 / (1.0 + a * a)
        assert counts[0] == cfg.n_walks
        for n in range(1, 21):
            p = survive**n
            se = math.sqrt(p * (1.0 - p) / cfg.n_walks)
            assert abs(counts[n] / cfg.n_walks - p) <= 4.0 * se, n

    @pytest.mark.parametrize(
        "d, a, n_walks, n_max",
        [(2, 0.5, 2 * _BATCH + 7, 20), (1, 1.0, 5_000, 0), (3, 0.2, 3_000, 200)],
    )
    def test_matches_naive_loop(self, d, a, n_walks, n_max):
        cfg = WalkConfig(d=d, a=a, n_walks=n_walks, seed=12, max_box=1)
        want = naive_kill_time_survival(cfg, n_max)
        assert np.array_equal(kill_time_survival(cfg, n_max), want)

    def test_monotone_counts(self):
        cfg = WalkConfig(d=1, a=1.0, n_walks=20_000, seed=9, max_box=1)
        counts = kill_time_survival(cfg, 10)
        assert np.all(np.diff(counts) <= 0)
