import numpy as np
import pytest

from spdeorder import NoisePath, TimeGrid, increment_at, sample_noise_path


def test_same_inputs_bitwise_identical():
    tg = TimeGrid(T=1.0, n_steps=200)
    a = sample_noise_path(12345, 7, 4, tg)
    b = sample_noise_path(12345, 7, 4, tg)
    assert np.array_equal(a.increments, b.increments)


def test_distinct_seeds_and_paths_differ():
    tg = TimeGrid(T=1.0, n_steps=50)
    base = sample_noise_path(1, 0, 2, tg)
    assert not np.array_equal(base.increments,
                              sample_noise_path(2, 0, 2, tg).increments)
    assert not np.array_equal(base.increments,
                              sample_noise_path(1, 1, 2, tg).increments)


def test_increment_at_matches_bulk_sampling():
    tg = TimeGrid(T=0.5, n_steps=17)
    path = sample_noise_path(99, 3, 5, tg)
    for k in (0, 2, 4):
        for n in (0, 8, 16):
            assert increment_at(99, 3, k, n, tg) == path.increments[k, n]


def test_increment_at_bounds():
    tg = TimeGrid(T=1.0, n_steps=10)
    with pytest.raises(IndexError):
        increment_at(0, 0, 0, 10, tg)
    with pytest.raises(IndexError):
        increment_at(0, 0, 0, -1, tg)


def test_zero_modes_gives_empty_path():
    tg = TimeGrid(T=1.0, n_steps=8)
    path = sample_noise_path(5, 0, 0, tg)
    assert path.increments.shape == (0, 8)
    assert path.K == 0


def test_increments_are_immutable():
    tg = TimeGrid(T=1.0, n_steps=4)
    path = sample_noise_path(0, 0, 1, tg)
    with pytest.raises(ValueError):
        path.increments[0, 0] = 1.0


def test_gaussian_moments():
    # 10^5 draws of N(0, dt): mean within 4 standard errors, variance
    # within 5 percent
    tg = TimeGrid(T=1.0, n_steps=100_000)
    dt = tg.dt
    draws = sample_noise_path(2024, 0, 1, tg).increments[0]
    assert abs(draws.mean()) <= 4.0 * np.sqrt(dt / draws.size)
    assert draws.var() == pytest.approx(dt, rel=0.05)
    # symmetric tails: P(|Z| > 2 sqrt(dt)) ~ 4.55%
    frac = np.mean(np.abs(draws) > 2.0 * np.sqrt(dt))
    assert frac == pytest.approx(0.0455, abs=0.005)


def test_variance_scales_with_dt():
    a = sample_noise_path(7, 0, 1, TimeGrid(T=1.0, n_steps=20_000)).increments
    b = sample_noise_path(7, 0, 1, TimeGrid(T=4.0, n_steps=20_000)).increments
    assert b.var() / a.var() == pytest.approx(4.0, rel=0.05)


def test_path_shape_validation():
    with pytest.raises(ValueError):
        NoisePath(np.zeros(5), dt=0.1, master_seed=0, path_index=0)
