import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyq.errors import DomainError, SingularWronskianError
from susyq.seeds import Parity, kummer_frame, make_seed
from susyq.wronskian import (
    WronskianLU,
    _dot,
    log_w_second_deriv,
    scaled_stack,
    sign_log_det_orders,
    wronskian,
    wronskian_minor,
)

EVEN, ODD = Parity.EVEN, Parity.ODD

# fourth-order class-A example: W is proportional to e^{2x^2} (16x^8 - 64x^6 + 120x^4 + 45)
DEEP_SEEDS = [
    make_seed(-5.5, ODD),
    make_seed(-4.5, EVEN),
    make_seed(-3.5, ODD),
    make_seed(-2.5, EVEN),
]


def deep_poly(x):
    return 16 * x**8 - 64 * x**6 + 120 * x**4 + 45


def test_single_seed_wronskian_is_the_seed():
    u = make_seed(0.9, ODD)
    xs = np.linspace(0.3, 4.0, 9)
    from susyq.seeds import seed_value

    np.testing.assert_allclose(wronskian([u], xs), seed_value(u, xs), rtol=1e-13)


def test_two_seed_closed_form():
    # W(e^{-x^2/2}, x e^{-x^2/2}) = e^{-x^2}
    pair = [make_seed(0.5, EVEN), make_seed(1.5, ODD)]
    xs = np.linspace(0.2, 5.0, 13)
    np.testing.assert_allclose(wronskian(pair, xs), np.exp(-xs * xs), rtol=1e-12)
    # swapping the seeds flips the sign
    np.testing.assert_allclose(
        wronskian(pair[::-1], xs), -np.exp(-xs * xs), rtol=1e-12
    )


def test_empty_wronskian_is_one():
    xs = np.linspace(0.5, 2.0, 5)
    np.testing.assert_allclose(wronskian([], xs), np.ones_like(xs))
    assert wronskian([], 1.0) == 1.0
    # no seeds is an empty table: W is 1 and (ln W)'' is 0, a float for a scalar x and an array
    # of x's shape otherwise
    for x in (1.0, [1.0], xs, xs.reshape(5, 1)):
        reads = [(wronskian([], x), 1.0), (log_w_second_deriv([], x), 0.0)]
        for got, want in reads:
            if np.ndim(x):
                assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
                assert np.all(got == want)
            else:
                assert type(got) is float and got == want
        assert kummer_frame((), x, 2, dtype=np.float64).shape == (3, 0) + np.shape(x)


def test_duplicate_seeds_give_numerically_zero_determinant():
    u = make_seed(0.7, EVEN)
    w = wronskian([u, u], np.linspace(0.5, 3.0, 7))
    assert np.all(np.abs(w) < 1e-25)


def test_deep_class_a_wronskian_ratio_is_constant():
    xs = np.linspace(0.3, 4.5, 40)
    w = wronskian(DEEP_SEEDS, xs)
    ratio = w / (np.exp(2 * xs * xs) * deep_poly(xs))
    assert np.all(np.isfinite(ratio))
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)


def test_minor_of_two_seeds_is_the_other_seed():
    from susyq.seeds import seed_value

    pair = [make_seed(0.5, EVEN), make_seed(1.5, ODD)]
    xs = np.linspace(0.2, 3.0, 9)
    np.testing.assert_allclose(
        wronskian_minor(pair, 1, xs), seed_value(pair[1], xs), rtol=1e-13
    )
    np.testing.assert_allclose(
        wronskian_minor(pair, 2, xs), seed_value(pair[0], xs), rtol=1e-13
    )
    with pytest.raises(IndexError):
        wronskian_minor(pair, 3, xs)


def test_log_w_second_deriv_closed_forms():
    xs = np.linspace(0.2, 4.0, 15)
    # k=1, u = x e^{-x^2/2}: (ln u)'' = -1 - 1/x^2
    got = log_w_second_deriv([make_seed(1.5, ODD)], xs)
    np.testing.assert_allclose(got, -1 - 1 / xs**2, rtol=1e-11)
    # k=1, u = e^{-x^2/2}: (ln u)'' = -1
    got = log_w_second_deriv([make_seed(0.5, EVEN)], xs)
    np.testing.assert_allclose(got, np.full_like(xs, -1.0), atol=1e-11)
    # k=2, W = e^{-x^2}: (ln W)'' = -2
    got = log_w_second_deriv([make_seed(0.5, EVEN), make_seed(1.5, ODD)], xs)
    np.testing.assert_allclose(got, np.full_like(xs, -2.0), atol=1e-10)


def test_log_w_second_deriv_matches_finite_difference():
    seeds = [make_seed(0.7, EVEN), make_seed(1.2, ODD)]
    h = 1e-3
    for x in (0.6, 1.3, 2.8):
        pts = x + h * np.array([-2, -1, 0, 1, 2])
        lw = np.log(np.abs(wronskian(seeds, pts)))
        fd = (-lw[0] + 16 * lw[1] - 30 * lw[2] + 16 * lw[3] - lw[4]) / (12 * h * h)
        assert log_w_second_deriv(seeds, x) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def _log_derivatives_of_w(seeds, x):
    """W'/W = r_k y and W''/W = r_{k+1} y - r_k y' of W's LU on the Kummer frame, y' = M^{-1} e_{k-1}.

    W here is that of h = u e^{-x^2/2}, W(u) = e^{+k x^2/2} W(h).
    """
    k = len(seeds)
    stack = scaled_stack(seeds, np.asarray(x, dtype=float), k + 1)
    lu = WronskianLU(stack)  # factors orders 0..k-1 in place; rows k and k+1 are never written
    unit = np.zeros(stack.shape[1:], dtype=stack.dtype)
    unit[k - 2] = 1
    w1 = _dot(stack[k], lu.last)
    return w1, _dot(stack[k + 1], lu.last) - _dot(stack[k], lu.solve(unit))


def test_deep_class_a_first_log_derivative_decays_at_origin():
    # class-A Wronskians are even in x, so (ln W)' -> 0 as x -> 0+
    vals = [abs(_log_derivatives_of_w(DEEP_SEEDS, x)[0]) for x in (1e-2, 1e-3, 1e-4)]
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 1e-3


def test_wronskian_lu_reads_the_derivatives_of_w():
    # W(h) = c p(x) with p = deep_poly, W(u) = e^{2x^2} W(h): r_k y = p'/p and
    # r_{k+1} y - r_k y' = p''/p, each read alone
    x = np.linspace(0.1, 9.9, 99).reshape(9, 11)
    p, dp = deep_poly(x), 128 * x**7 - 384 * x**5 + 480 * x**3
    ddp = 896 * x**6 - 1920 * x**4 + 1440 * x**2
    w1, w2 = _log_derivatives_of_w(DEEP_SEEDS, x)
    np.testing.assert_allclose(w1.astype(float), dp / p, rtol=1e-14)
    np.testing.assert_allclose(w2.astype(float), ddp / p, rtol=1e-14)
    # a point alone equals the point in the batch
    for i in [(0, 0), (4, 7), (8, 10)]:
        alone = _log_derivatives_of_w(DEEP_SEEDS, x[i])
        assert alone[0] == w1[i] and alone[1] == w2[i]


def test_det_orders_validates_order_list():
    pair = [make_seed(0.5, EVEN), make_seed(1.5, ODD)]
    stack = scaled_stack(pair, np.asarray(1.0), 3)
    with pytest.raises(ValueError):
        sign_log_det_orders(stack, [0])
    with pytest.raises(ValueError):
        sign_log_det_orders(stack, [2, 1])
    with pytest.raises(ValueError):
        sign_log_det_orders(stack, [1, 1])


def test_domain_error_on_nonpositive_x():
    pair = [make_seed(0.5, EVEN), make_seed(1.5, ODD)]
    with pytest.raises(DomainError):
        wronskian(pair, 0.0)
    with pytest.raises(DomainError):
        log_w_second_deriv(pair, np.array([1.0, -1.0]))


def test_singular_wronskian_raises():
    u = make_seed(0.7, EVEN)
    with pytest.raises(SingularWronskianError):
        log_w_second_deriv([u, u], 1.0)


def test_wronskian_beyond_float64_is_inf_with_its_sign_and_no_warning():
    # an order-8 seed set whose |W| passes float64's range at x = 13.7 while its log is finite:
    # W is inf with W's sign, no overflow warning, and the points in range keep their bits
    eps = (-4.861, -4.271, -3.77, -3.423, -3.197, -2.574, -2.145, 0.702)
    parities = (ODD, EVEN, ODD, ODD, ODD, ODD, ODD, EVEN)
    seeds = [make_seed(e, p) for e, p in zip(eps, parities)]
    inside, x = np.array([1.0, 5.0, 9.0]), np.array([1.0, 5.0, 9.0, 13.7])
    lu = WronskianLU(scaled_stack(seeds, x, len(seeds) - 1))
    assert np.isfinite(lu.log[-1]) and lu.log[-1] - 8 * 13.7**2 / 2 > np.log(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, alone = wronskian(seeds, x), wronskian(seeds, 13.7)
        want = wronskian(seeds, inside)
    assert alone == w[-1] == np.copysign(np.inf, lu.sign[-1])
    assert np.isfinite(want).all() and w[:-1].tobytes() == want.tobytes()
    in_range = lu.sign[:-1] * np.exp(lu.log[:-1] - 8 * inside.astype(np.longdouble) ** 2 / 2)
    assert want.tobytes() == in_range.astype(float).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    e1=st.floats(-4, 0.4),
    de=st.floats(0.1, 2.0),
    x=st.floats(0.2, 4.0),
)
def test_wronskian_antisymmetry_property(e1, de, x):
    a = make_seed(e1, ODD)
    b = make_seed(e1 + de, EVEN)
    w_ab = wronskian([a, b], x)
    w_ba = wronskian([b, a], x)
    assert w_ab == pytest.approx(-w_ba, rel=1e-10, abs=1e-280)


def test_wronskian_keeps_its_digits_at_large_x(monkeypatch):
    # order-6 class-B plan: over the seeds' own derivatives, whose rows grow like (2x)^n, W was
    # 4e-6 off mpmath at x = 9.99; the Kummer frame has the same determinant, within 5e-12 there
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mpmath.mp, "dps", 40)
    eps = (0.6, 0.75, 0.9, 1.0, 1.2, 1.4)
    seeds = [make_seed(e, ODD if i % 2 else EVEN) for i, e in enumerate(eps)]
    for x in (0.3, 4.0, 8.0, 9.99):
        t = mpmath.mpf(x)
        cols = []
        for u in seeds:
            a, b = (u.a_even, 0.5) if u.parity is EVEN else (u.a_odd, 1.5)
            f = (lambda t, a=a, b=b, p=u.parity: mpmath.exp(-t * t / 2) * (t if p is ODD else 1)
                 * mpmath.hyp1f1(a, b, t * t))
            cols.append(mpmath.diffs(f, t, len(eps) - 1))
        want = mpmath.det(mpmath.matrix([list(c) for c in zip(*cols)]))
        assert abs(wronskian(seeds, x) - want) <= 1e-10 * abs(want)


def _same_bits(x, y):
    """Equal values and signs: the same bits, without reading a longdouble's padding bytes."""
    return np.array_equal(x, y, equal_nan=True) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("k", range(9))
def test_wronskian_lu_against_numpy_and_point_by_point(dtype, k):
    # random stacks, rows 0..k+1 of k functions, with columns 1e-9..1e9 apart: det and solve
    # against LAPACK (in float64, where the longdouble stacks hold float64 values), and each
    # point bitwise the same point factored alone
    rng = np.random.default_rng(k)
    for shape in ((), (7,), (5, 8)):
        scale = np.exp(rng.uniform(-20, 20, (1, k) + shape))
        stack = (rng.standard_normal((k + 2, k) + shape) * scale).astype(dtype)
        factored = stack.copy()  # the LU factors orders 0..k-1 in place
        b = rng.standard_normal((k,) + shape).astype(dtype)
        lu = WronskianLU(factored)
        y = lu.solve(b)
        assert np.array_equal(factored[k:], stack[k:])
        assert lu.sign.shape == lu.log.shape == shape and y.shape == b.shape
        assert lu.sign.dtype == lu.log.dtype == y.dtype == dtype
        mats = np.moveaxis(stack[:k].astype(np.float64), (0, 1), (-2, -1))
        sign, logd = np.linalg.slogdet(mats)
        assert np.array_equal(lu.sign, sign)
        np.testing.assert_allclose(lu.log.astype(float), logd, rtol=1e-12, atol=1e-12)
        want = np.moveaxis(np.linalg.solve(mats, np.moveaxis(b.astype(float), 0, -1)[..., None])[..., 0], -1, 0)
        # equilibrated columns: y_j times column j's largest entry is O(1) at every point
        cols = np.abs(stack[:k]).max(axis=0, initial=0).astype(float)
        err = np.abs((y.astype(float) - want) * cols).max(axis=0, initial=0)
        assert np.all(err <= 1e-9 * np.abs(want * cols).max(axis=0, initial=1))
        for idx in np.ndindex(shape):
            at = (slice(None),) + idx
            alone = WronskianLU(stack[(slice(None),) + at].copy())
            assert _same_bits(alone.sign, lu.sign[idx]) and _same_bits(alone.log, lu.log[idx])
            assert _same_bits(alone.solve(b[at]), y[at])
        if k:  # an exactly zero column at one point: det 0 there, and nowhere else
            spot = (slice(None), k // 2) + tuple(n - 1 for n in shape)
            stack[spot] = 0
            zeroed = WronskianLU(stack.copy())
            last = tuple(n - 1 for n in shape)
            assert zeroed.sign[last] == 0 and zeroed.log[last] == -np.inf
            rest = np.ones(shape, dtype=bool)
            rest[last] = False
            assert _same_bits(zeroed.sign[rest], lu.sign[rest]) and _same_bits(zeroed.log[rest], lu.log[rest])
    # columns diagonally dominant at every point, so that no point pivots and every column skips
    # its row swap, and the same points mixed with pivoting ones in one batch: sign, log, solve
    # and last of each point are bitwise those of the point factored alone
    calm = rng.uniform(-1, 1, (k + 2, k, 9))
    calm[range(k), range(k)] = rng.uniform(k, k + 1, (k, 9)) * rng.choice([-1, 1], (k, 9))
    calm *= np.exp(rng.uniform(-20, 20, (1, k, 1)))
    mixed = np.concatenate([calm, rng.standard_normal((k + 2, k, 9))], axis=2)[..., rng.permutation(18)]
    for stack, pivots in ((calm, False), (mixed, k > 1)):
        stack = stack.astype(dtype)
        b = rng.standard_normal(stack.shape[1:]).astype(dtype)
        lu = WronskianLU(stack.copy())
        y = lu.solve(b)
        assert np.array_equal(lu._perm, np.broadcast_to(np.arange(k)[:, None], lu._perm.shape)) != pivots
        for i in range(stack.shape[2]):
            alone = WronskianLU(stack[..., i].copy())
            assert _same_bits(alone.sign, lu.sign[i]) and _same_bits(alone.log, lu.log[i])
            assert _same_bits(alone.solve(b[:, i]), y[:, i]) and _same_bits(alone.last, lu.last[:, i])
