import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyq.errors import DomainError
from susyq.oracle import Grid
from susyq.seeds import (
    Parity,
    derivative_table,
    derivatives,
    frame_constants,
    kummer_frame,
    make_seed,
    make_seed_general,
    seed_derivs,
    seed_value,
)


def gauss(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2 / 2)


def test_odd_seed_at_three_halves_is_x_gaussian():
    u = make_seed(1.5, Parity.ODD)
    xs = np.linspace(0.0, 5.0, 23)
    np.testing.assert_allclose(seed_value(u, xs), xs * gauss(xs), rtol=1e-14)


def test_even_seed_at_one_half_is_gaussian():
    u = make_seed(0.5, Parity.EVEN)
    xs = np.linspace(0.0, 5.0, 23)
    np.testing.assert_allclose(seed_value(u, xs), gauss(xs), rtol=1e-14)


def test_terminating_seeds_match_hermite_polynomials():
    # eps = 7/2 odd: 1F1(-1, 3/2; x^2) = 1 - 2x^2/3, so u = -H3(x) e^{-x^2/2} / 12
    u = make_seed(3.5, Parity.ODD)
    xs = np.linspace(0.1, 4.0, 17)
    h3 = 8 * xs**3 - 12 * xs
    np.testing.assert_allclose(seed_value(u, xs), -h3 * gauss(xs) / 12, rtol=1e-13)
    # eps = 5/2 even: 1F1(-1, 1/2; x^2) = 1 - 2x^2, so u = -H2(x) e^{-x^2/2} / 2
    u = make_seed(2.5, Parity.EVEN)
    h2 = 4 * xs**2 - 2
    np.testing.assert_allclose(seed_value(u, xs), -h2 * gauss(xs) / 2, rtol=1e-13)


def test_odd_seed_vanishes_at_origin():
    for eps in (-3.3, 0.1, 1.5, 2.7):
        assert seed_value(make_seed(eps, Parity.ODD), 0.0) == 0.0


def test_even_seed_is_one_at_origin():
    for eps in (-3.3, 0.1, 0.5, 2.7):
        assert seed_value(make_seed(eps, Parity.EVEN), 0.0) == 1.0


def test_derivs_closed_form_odd_three_halves():
    # u = x e^{-x^2/2}: u(1), u'(1), u''(1) = e^{-1/2} * (1, 0, -2)
    u = make_seed(1.5, Parity.ODD)
    d = seed_derivs(u, 1.0, 2)
    np.testing.assert_allclose(
        d, np.array([1.0, 0.0, -2.0]) * math.exp(-0.5), atol=1e-14
    )


def test_derivs_closed_form_even_one_half():
    # u = e^{-x^2/2}: u'(1) = -e^{-1/2}
    u = make_seed(0.5, Parity.EVEN)
    d = seed_derivs(u, 1.0, 1)
    assert d[1] == pytest.approx(-math.exp(-0.5), rel=1e-14)


def test_third_derivative_matches_finite_difference():
    u = make_seed(-2.3, Parity.EVEN)
    x, h = 1.7, 1e-2
    fd3 = (
        -seed_value(u, x - 2 * h) / 2
        + seed_value(u, x - h)
        - seed_value(u, x + h)
        + seed_value(u, x + 2 * h) / 2
    ) / h**3
    d3 = seed_derivs(u, x, 3)[3]
    assert d3 == pytest.approx(fd3, rel=1e-3)


def test_mixed_seed_combines_branches():
    w = make_seed_general(0.8, 2.0, -3.0)
    assert w.parity is None
    xs = np.linspace(0.0, 3.0, 9)
    expected = 2.0 * seed_value(make_seed(0.8, Parity.EVEN), xs) - 3.0 * seed_value(
        make_seed(0.8, Parity.ODD), xs
    )
    np.testing.assert_allclose(seed_value(w, xs), expected, rtol=1e-13)


def test_definite_parity_flags():
    assert make_seed(0.8, Parity.EVEN).parity is Parity.EVEN
    assert make_seed(0.8, Parity.ODD).parity is Parity.ODD


def test_rejects_null_seed():
    with pytest.raises(ValueError):
        make_seed_general(1.0, 0.0, 0.0)


def test_domain_errors():
    u = make_seed(1.5, Parity.ODD)
    for x in (-0.5, np.nan, np.inf, -np.inf, np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            seed_value(u, x)
    for x in (0.0, -0.5, np.nan, np.inf, np.array([1.0, np.inf])):
        with pytest.raises(DomainError):
            seed_derivs(u, x, 2)


def test_derivative_table_shape():
    seeds = (make_seed(0.9, Parity.ODD), make_seed_general(0.9, 0.7, -1.3))
    xs = np.linspace(0.2, 2.0, 11)
    frame = kummer_frame(seeds, xs, 5, dtype=np.longdouble)
    table = derivative_table(frame, xs)
    assert table.shape == (6, 2, 11)
    assert table.dtype == np.longdouble
    # the map is unit lower triangular: v_0 = N_0 and v_1 = N_1 + x N_0, bit for bit
    np.testing.assert_array_equal(table[0], frame[0])
    np.testing.assert_array_equal(table[1], frame[1] + xs.astype(np.longdouble) * frame[0])


@settings(max_examples=80, deadline=None)
@given(
    eps=st.floats(-6, 3),
    par=st.sampled_from([Parity.EVEN, Parity.ODD]),
    x=st.floats(0.05, 6.0),
)
def test_ode_residual_property(eps, par, x):
    u = make_seed(eps, par)
    d = seed_derivs(u, x, 2)
    scale = max(np.abs(d).max(), 1e-30)
    residual = d[2] - (x * x - 2 * eps) * d[0]
    assert abs(residual) <= 1e-9 * scale


@pytest.mark.parametrize("seed", [make_seed(0.3, Parity.EVEN), make_seed(-2.7, Parity.ODD),
                                  make_seed_general(0.9, 0.7, -1.3)])
def test_seed_point_alone_equals_the_point_in_a_grid_batch(seed):
    x = Grid().closed_points
    batch = seed.scaled_derivatives(x, 5)
    for i in list(range(0, x.size, 211)) + [x.size - 1]:
        assert seed.scaled_derivatives(x[i : i + 1], 5).tobytes() == batch[:, i : i + 1].tobytes()
    # a lone seed is the same evaluation as a seed inside a batch of seeds
    both = derivatives((make_seed(1.1, Parity.ODD), seed), x, 5)
    assert both[:, 1].tobytes() == batch.tobytes()
    # and so is every point of a Kummer-frame table, in longdouble as the Wronskians use it
    frame = kummer_frame((make_seed(1.1, Parity.ODD), seed), x, 9, dtype=np.longdouble)
    for i in list(range(0, x.size, 211)) + [x.size - 1]:
        alone = kummer_frame((seed,), x[i : i + 1], 9, dtype=np.longdouble)
        # longdouble padding bytes are undefined, so the values compare, not the bytes
        np.testing.assert_array_equal(alone, frame[:, 1:, i : i + 1])


def _same_bits(x, y):
    """Equal shapes, dtypes, values and signs, without reading a longdouble's padding bytes."""
    return (x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def test_kummer_frame_constants_come_from_a_read_only_cache_and_change_no_bit():
    # random seed sets of k = 1-8 (even, odd and mixed seeds) at every max_order 0..k+1, in both
    # dtypes and on (), (1,) and (64,) points: a frame from the cache is bitwise the frame built
    # after cache_clear()
    rng = np.random.default_rng(28)
    kinds = (lambda e: make_seed(e, Parity.EVEN), lambda e: make_seed(e, Parity.ODD),
             lambda e: make_seed_general(e, *rng.uniform(-2, 2, 2)))
    cases = [(k, top) for k in range(1, 9) for top in range(k + 2)]
    for n, (k, top) in enumerate(cases):
        dtype = (np.float64, np.longdouble)[n % 2]
        shape = ((), (1,), (64,))[n % 3]
        seeds = [kinds[i](e) for i, e in zip(rng.integers(3, size=k), rng.uniform(-6, 4, k))]
        x = rng.uniform(0, 9.5, shape)
        frame_constants(tuple(seeds), top, dtype)
        hits = frame_constants.cache_info().hits
        cached = kummer_frame(seeds, x, top, dtype=dtype)
        assert frame_constants.cache_info().hits == hits + 1
        # a list and a tuple of the same seeds are one key
        assert _same_bits(kummer_frame(tuple(seeds), x, top, dtype=dtype), cached)
        frame_constants.cache_clear()
        assert _same_bits(kummer_frame(seeds, x, top, dtype=dtype), cached)
    # every cached array is read-only, a mixed seed's row index included
    const = frame_constants((make_seed(0.3, Parity.ODD), make_seed_general(0.9, 0.7, -1.3)), 5, np.float64)
    arrays = [const.a, const.b, const.b_top, const.odd, const.idx, const.pochhammer, const.odd_steps,
              *const.ladder, *const.weights.values()]
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("seed", [make_seed(0.616, Parity.EVEN), make_seed(1.405, Parity.ODD),
                                  make_seed(-4.2, Parity.EVEN), make_seed(2.27, Parity.ODD),
                                  make_seed_general(0.9, 0.7, -1.3)])
def test_kummer_frame_matches_mpmath(seed, monkeypatch):
    # N_n = h^(n) e^{+x^2} with h = u e^{-x^2/2}, differentiated by mpmath at 40 digits, and the
    # plain frame v_n = u^(n) e^{+x^2/2} that derivatives maps it to
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mpmath.mp, "dps", 40)
    top = 7
    x = np.array([0.05, 0.9, 3.0, 6.5, 9.99])
    got = kummer_frame((seed,), x, top, dtype=np.longdouble)[:, 0]
    plain = derivatives((seed,), x, top)[:, 0]

    def h(t):
        m_e = mpmath.hyp1f1(mpmath.mpf(seed.a_even), 0.5, t * t)
        m_o = mpmath.hyp1f1(mpmath.mpf(seed.a_odd), 1.5, t * t)
        return mpmath.exp(-t * t) * (seed.b1 * m_e + seed.b2 * t * m_o)

    for i, xi in enumerate(map(mpmath.mpf, x)):
        want = [d * mpmath.exp(xi * xi) for d in mpmath.diffs(h, xi, top)]
        scale = max(abs(w) for w in want)
        for n in range(top + 1):
            num, den = got[n, i].as_integer_ratio()
            assert abs(mpmath.mpf(num) / den - want[n]) <= 1e-17 * scale
        want = [d * mpmath.exp(xi * xi / 2)
                for d in mpmath.diffs(lambda t: h(t) * mpmath.exp(t * t / 2), xi, top)]
        scale = max(abs(w) for w in want)
        for n in range(top + 1):
            assert abs(plain[n, i] - want[n]) <= 1e-14 * scale
