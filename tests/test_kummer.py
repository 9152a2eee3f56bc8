import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyq.errors import ConvergenceError, InvalidParameterError
from susyq.kummer import (
    BLOCK, FOLD_ENTRIES, TERM_CAP, _slab_blocks, b_ladder, kummer_m, kummer_m_deriv, ladder_steps,
)
from susyq.oracle import Grid


def test_at_zero_is_one():
    assert kummer_m(7.3, 1.5, 0.0) == 1.0


def test_zero_upper_parameter_terminates():
    assert kummer_m(0.0, 1.5, 5.0) == 1.0


def test_closed_form_1_2():
    # 1F1(1, 2; z) = (e^z - 1)/z, cross-checked by direct series summation
    z = 1.0
    expected = math.expm1(z) / z
    assert kummer_m(1.0, 2.0, z) == pytest.approx(expected, rel=1e-14)
    brute = sum(1.0 / math.factorial(n + 1) for n in range(60))
    assert kummer_m(1.0, 2.0, z) == pytest.approx(brute, rel=1e-14)


def test_two_term_terminating_zero():
    # 1F1(-1, 3/2; z) = 1 - (2/3) z vanishes at z = 1.5
    assert kummer_m(-1.0, 1.5, 1.5) == pytest.approx(0.0, abs=1e-15)


def test_rejects_nonpositive_integer_b():
    for b in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(InvalidParameterError):
            kummer_m(1.0, b, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["a", "b", "z"])
def test_rejects_non_finite_arguments_before_any_series(bad, where):
    # a non-finite z would run every TERM_CAP terms and a = inf return inf; b = -inf would reach
    # int(-inf) in the non-positive-integer check
    good = {"a": 0.5, "b": 1.5, "z": 2.0}
    for arrays in (False, True):
        args = dict(good, **{where: bad})
        if arrays:
            args[where] = np.array([good[where], bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidParameterError, match=f"non-finite {where}"):
                kummer_m(args["a"], args["b"], args["z"], zderiv=True)
            if where != "z" and not arrays:
                with pytest.raises(InvalidParameterError, match=f"non-finite {where}"):
                    kummer_m_deriv(args["a"], args["b"], 2.0, n=1)


def test_array_input_shape():
    z = np.array([0.0, 1.0, 4.0, 100.0])
    out = kummer_m(2.5, 1.5, z)
    assert out.shape == z.shape
    assert out[0] == 1.0


def test_against_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    cases = [
        (3.5, 1.5, 100.0),
        (-5.3, 0.5, 100.0),
        (-0.2, 0.5, 36.0),
        (2.5, 0.5, 81.0),
        (0.45, 1.5, 12.25),
        (-2.75, 1.5, 7.0),
        (1.0, 0.5, 0.3),
    ]
    for a, b, z in cases:
        ref = float(mpmath.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(ref, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    # |a| >= 1e-3 (or exactly 0): for tiny a even a longdouble b - a drops
    # a's low bits, which perturbs M - 1 ~ a * S at first order
    a=st.one_of(st.just(0.0), st.floats(1e-3, 6), st.floats(-6, -1e-3)),
    b=st.sampled_from([0.5, 1.5, 2.5, 0.7, 3.2]),
    z=st.floats(0, 100),
)
def test_kummer_transformation_consistency(a, b, z):
    # the reflected parameter must be exact: near a negative-integer a, M(b - a, b, -z)
    # cancels almost completely and amplifies a rounded b - a about 1e6 times.  In
    # longdouble (64-bit significand) b - a is exact for the a and b drawn here.
    c = np.longdouble(b) - np.longdouble(a)
    assert Fraction(*c.as_integer_ratio()) == Fraction(b) - Fraction(a)
    direct = kummer_m(a, b, z)
    reflected = math.exp(z) * kummer_m(c, b, -z) if z < 700 else direct
    assert abs(direct - reflected) <= 1e-10 * abs(direct)


@pytest.mark.parametrize("m", range(11))
def test_terminating_case_matches_horner(m):
    # explicit polynomial coefficients (a)_n / ((b)_n n!); rational
    # arithmetic keeps the Horner reference exact even where the
    # alternating polynomial is badly conditioned (m = 10, z = 25)
    a, b = -m, Fraction(3, 2)
    coeffs = [Fraction(1)]
    for n in range(m):
        coeffs.append(coeffs[-1] * (a + n) / ((b + n) * (n + 1)))
    for z in (0.3, 2.0, 9.0, 25.0):
        horner = Fraction(0)
        for c in reversed(coeffs):
            horner = horner * Fraction(z) + c
        if horner == 0:
            continue
        assert kummer_m(float(a), 1.5, z) == pytest.approx(float(horner), rel=1e-14)


def test_deriv_order_zero_is_identity():
    assert kummer_m_deriv(2.3, 1.5, 4.0, n=0) == kummer_m(2.3, 1.5, 4.0)


def test_deriv_at_origin_is_a_over_b():
    assert kummer_m_deriv(1.0, 2.0, 0.0, n=1) == pytest.approx(0.5, rel=1e-14)


def test_deriv_of_linear_terminating_case():
    # d/dz [1 - (2/3) z] = -2/3 everywhere
    assert kummer_m_deriv(-1.0, 1.5, 0.7, n=1) == pytest.approx(-2.0 / 3.0, rel=1e-14)


def test_deriv_matches_central_difference():
    h = 1e-5
    for a, b, z in [(2.5, 1.5, 3.0), (-1.7, 0.5, 8.0), (0.3, 1.5, 0.9)]:
        fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2 * h)
        assert abs(kummer_m_deriv(a, b, z, n=1) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_deriv_rejects_bad_shifted_b():
    with pytest.raises(InvalidParameterError):
        kummer_m_deriv(1.0, -0.0, 1.0, n=1)
    with pytest.raises(InvalidParameterError):
        kummer_m_deriv(1.0, -1.0, 1.0, n=2)


def _same_bits(x, y):
    """Equal values and signs: the same bits, without reading a longdouble's padding bytes."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def test_point_alone_equals_the_point_in_a_grid_batch():
    # every entry stops on its own, at the same block whichever way its blocks are summed: by
    # accumulate in a call of at most FOLD_ENTRIES live entries, term by term in a wider one.  So
    # no other point or row of a call moves its value.  Seed tables of float64 plans sum in float64
    z = Grid().closed_points ** 2
    picks = list(range(0, z.size, 97)) + [z.size - 2, z.size - 1]
    for work in (np.longdouble, np.float64):
        for a in (0.3, -2.7, -5.0, 1.25):
            batch = kummer_m(a, 0.5, z, work=work)
            for i in picks:
                assert kummer_m(a, 0.5, z[i], work=work) == batch[i]
        rows = kummer_m(np.array([0.3, -2.7, 1.3]), np.array([0.5, 1.5, 1.5]), z, work=work)
        assert rows.shape == (3, z.size)
        assert rows[1].tobytes() == kummer_m(-2.7, 1.5, z, work=work).tobytes()
        # the top rows of a seed table's two branches (b = 1/2 + top and 3/2 + top), as
        # seeds.kummer_frame sums them in dtype, in calls of FOLD_ENTRIES and FOLD_ENTRIES + 1
        top = 6
        for a, b in ((-0.45, 0.5 + top), (-1.2, 1.5 + top), (2.3, 0.5 + top), (0.05, 1.5 + top)):
            for entries in (FOLD_ENTRIES, FOLD_ENTRIES + 1):
                zs = z[np.linspace(0, z.size - 1, entries).astype(int)].astype(work)
                m, zm = kummer_m(a, b, zs, dtype=work, zderiv=True, work=work)
                for i in range(entries):
                    alone = kummer_m(a, b, zs[i : i + 1], dtype=work, zderiv=True, work=work)
                    assert _same_bits(alone[0][0], m[i]) and _same_bits(alone[1][0], zm[i])


def test_terminating_series_stops_on_its_zero_term_beyond_the_term_cap():
    # a = -2 ends the series at its z^2 term, 1 - 4z + 4z^2/3, at z beyond TERM_CAP, where no
    # block reaches n >= z: the entry stops on its zero term, at the first block end of a slab
    # of every TERM_CAP terms, alone and beside a point that stops at n >= z
    z = 20000.0
    assert z > TERM_CAP and _slab_blocks(0, z, 1) * BLOCK == TERM_CAP
    want = 1 - 4 * Fraction(z) + Fraction(4, 3) * Fraction(z) ** 2
    alone = kummer_m(-2, 0.5, z, dtype=np.longdouble)
    assert abs(Fraction(*alone.as_integer_ratio()) - want) <= np.finfo(np.longdouble).eps * want
    pair = kummer_m(-2, 0.5, np.array([0.25, z]), dtype=np.longdouble)
    assert _same_bits(pair, [kummer_m(-2, 0.5, 0.25, dtype=np.longdouble), alone])


def _series(a, b, z, tol, work):
    """(M, z M', n) for one entry, term by term: the kernel's recurrence and stop rule, n its last term."""
    a, b, z = work(a), work(b), work(z)
    term, total, zderiv = work(1), work(1), work(0)
    for n in range(TERM_CAP):
        weight = work(n + 1)
        term = term * ((a + n) / ((b + n) * weight) * z)
        total = total + term
        zderiv = zderiv + weight * term
        if n % BLOCK == BLOCK - 1 and (term == 0 or (
                n >= z and abs(term) <= tol * abs(total) and weight * abs(term) <= tol * abs(zderiv))):
            return total, zderiv, n
    raise ConvergenceError(f"no stop within {TERM_CAP} terms")


def _check_against_series(a, b, z, work):
    """kummer_m's rows (a, b) at z >= 0, summed and rounded in work, bit for bit against _series."""
    m, zm = kummer_m(a, b, z, dtype=work, zderiv=True, work=work)
    stops = np.empty(m.shape, dtype=int)
    for (r, i), _ in np.ndenumerate(m):
        want_m, want_zm, stops[r, i] = _series(a[r], b[r], z[i], np.finfo(work).eps, work)
        assert _same_bits(m[r, i], want_m) and _same_bits(zm[r, i], want_zm), (a[r], b[r], z[i])
    return stops // BLOCK


def test_kernel_matches_a_scalar_series_bit_for_bit():
    # calls of 1 to 400 entries: the term-by-term loop (more than FOLD_ENTRIES live entries),
    # folds of one block and slabs of several, stops on a zero term among them
    rng = np.random.default_rng(25)
    for work in (np.float64, np.longdouble):
        for rows, points, zmax in ((1, 1, 150), (1, 6, 1), (2, 1, 20), (3, 40, 150), (2, 96, 20),
                                   (4, 100, 1), (4, 100, 150)):
            a = rng.uniform(-6, 6, rows)
            a[rng.random(rows) < 0.3] = -rng.integers(0, 5)
            b = rng.choice([0.5, 1.5, 2.5, 6.5, 10.5], rows)
            _check_against_series(a, b, rng.uniform(0, zmax, points), work)


@pytest.mark.parametrize("work", [np.float64, np.longdouble])
def test_entries_stop_in_every_block_of_a_slab(work):
    # a slab runs to about where its largest z stops; M(1/2, 1/2; z) = e^z stops in its first,
    # a middle and its last block at z = 0.01, 40 and 90, and M(40, 1/2; 90) only in the next slab
    a, b, z = np.array([0.5, 40.0]), np.array([0.5, 0.5]), np.array([0.01, 40.0, 90.0])
    stops = _check_against_series(a, b, z, work)
    last = _slab_blocks(0, z.max(), z.size * a.size) - 1
    assert stops[0, 0] == 0 < stops[0, 1] < stops[0, 2] == last < stops[1, 2]


def test_series_past_the_term_cap_fails_at_once():
    # z = 9800 needs about z + 10 sqrt(z) terms, more than TERM_CAP; z = 2e4 would overflow e^z
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        kummer_m(0.5, 0.5, 9800.0, dtype=np.longdouble)
    assert time.perf_counter() - start < 1.0


def test_sum_beyond_its_dtypes_range_raises_without_a_warning():
    # e^800 fits longdouble, where it is summed, but not float64, where it is returned; e^12000
    # passes longdouble's range and e^100000 float64's in the terms themselves
    calls = [lambda: kummer_m(0.5, 0.5, 800.0),
             lambda: kummer_m(0.5, 0.5, 12000.0, dtype=np.longdouble),
             lambda: kummer_m(0.5, 0.5, 1e5, work=np.float64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, dtype in zip(calls, ("float64", "float128|longdouble", "float64")):
            with pytest.raises(ConvergenceError, match=f"range of ({dtype})"):
                call()
        # a terminating series at z beyond the others' range is still its polynomial value
        z = 20000.0
        want = 1 - 4 * Fraction(z) + Fraction(4, 3) * Fraction(z) ** 2
        got = kummer_m(-2, 0.5, z, dtype=np.longdouble)
    assert abs(Fraction(*got.as_integer_ratio()) - want) <= np.finfo(np.longdouble).eps * want


def _ld_mpf(mpmath, v):
    """A longdouble as an exact mpmath number."""
    n, d = np.longdouble(v).as_integer_ratio()
    return mpmath.mpf(n) / d


@pytest.mark.parametrize("a", [-1.05, -0.85, 0.0475, 1.2, 3.25])
def test_fused_series_and_b_ladder_match_mpmath(a, monkeypatch):
    # one term loop gives M and z M' at the top of the ladder; the backward recurrence in b
    # gives every M(a, b + m) below it.  Relative to mpmath at 40 digits, in longdouble
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mpmath.mp, "dps", 40)
    z = np.array([1e-8, 0.01, 0.7, 6.25, 30.0, 64.0, 99.8, 100.0])
    for b, top in ((0.5, 9), (1.5, 5), (0.5, 1)):
        m, zm = kummer_m(a, b + top, z, dtype=np.longdouble, zderiv=True)
        steps = ladder_steps(np.longdouble(a), np.longdouble(b), top)
        ladder = np.empty((top + 1,) + m.shape, dtype=m.dtype)
        b_ladder(z.astype(np.longdouble), m, zm, steps, ladder)
        for i, zi in enumerate(z):
            zi = mpmath.mpf(zi)
            want_zm = zi * mpmath.diff(lambda t: mpmath.hyp1f1(a, b + top, t), zi)
            assert abs(_ld_mpf(mpmath, zm[i]) - want_zm) <= 2e-17 * abs(want_zm)
            for step in range(top + 1):
                want = mpmath.hyp1f1(a, b + step, zi)
                assert abs(_ld_mpf(mpmath, ladder[step, i]) - want) <= 2e-17 * abs(want)


@pytest.mark.parametrize("n", [1, 2])
def test_deriv_forms_the_shifted_parameters_exactly(n, monkeypatch):
    # a + n rounded to float64 moves a longdouble result by ~5e-16 at (0.0475, 1/2, 99.85)
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mpmath.mp, "dps", 40)
    for a, b in ((0.0475, 0.5), (0.0475, 1.5), (-1.05, 0.5), (3.25, 1.5)):
        for z in (0.3, 9.0, 50.0, 99.85):
            got = kummer_m_deriv(a, b, z, n=n, dtype=np.longdouble)
            want = mpmath.diff(lambda t: mpmath.hyp1f1(a, b, t), z, n)
            assert abs(_ld_mpf(mpmath, got) - want) <= 1e-17 * abs(want)


def test_reflected_series_at_negative_z_matches_mpmath(monkeypatch):
    # at z < 0, with w = -z, M and z M' are read from one series at (b - a, b + 1; w):
    # M = e^z [M(b - a, b + 1, w) + w M'(b - a, b + 1, w) / b] and
    # z M' = z (a / b) e^z M(b - a, b + 1, w), e^z in extended precision.  z M' formed as
    # z M + e^z (w M')(b - a, b, w) cancels, by up to 4e4 ulp on these samples; M with e^z in
    # float64 is off by up to 15 ulp.  Both are within 1.3 ulp of mpmath over six sample seeds
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mpmath.mp, "dps", 40)
    rng = np.random.default_rng(24)
    n = 400
    a, b, z = rng.uniform(-3, 3, n), rng.choice([0.5, 1.5, 2.5, 7.5], n), rng.uniform(-60, -0.1, n)
    for ai, bi, zi in zip(a, b, z):
        m, zm = kummer_m(ai, bi, zi, zderiv=True)
        A, B, Z = mpmath.mpf(ai), mpmath.mpf(bi), mpmath.mpf(zi)
        want_zm = Z * A / B * mpmath.hyp1f1(A + 1, B + 1, Z)
        for got, want in ((m, mpmath.hyp1f1(A, B, Z)), (zm, want_zm)):
            assert abs(got - want) <= 2 * np.spacing(abs(float(want)))
