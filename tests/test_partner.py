import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, simpson

import susyq
from susyq.design import make_plan, validate
from susyq.errors import (
    DegenerateEnergyError,
    DomainError,
    NonNormalizableError,
    SingularWronskianError,
)
from susyq.oracle import Grid
from susyq.partner import (
    FLOAT64_X_MAX,
    BaseState,
    PartnerPotential,
    SeedTable,
    added_state,
    base_state_value,
    normalize,
    partner_v,
    transformed_eigenfunction,
    truncated_oscillator_v,
)
from susyq import seeds
from susyq.seeds import BLOCK_BYTES, Parity, kummer_frame, make_seed, seed_value
from susyq.wronskian import (
    WORK_DTYPE,
    WronskianLU,
    log_w_second_deriv,
    scaled_stack,
    sign_log_det_orders,
)

EVEN, ODD = Parity.EVEN, Parity.ODD

DEEP = PartnerPotential(
    seeds=(
        make_seed(-5.5, ODD),
        make_seed(-4.5, EVEN),
        make_seed(-3.5, ODD),
        make_seed(-2.5, EVEN),
    )
)


def deep_v_closed(x):
    num = (
        256 * x**18
        - 4096 * x**16
        + 28416 * x**14
        - 99328 * x**12
        + 172512 * x**10
        - 224640 * x**8
        + 91440 * x**6
        + 86400 * x**4
        - 127575 * x**2
        - 16200
    )
    return num / (2 * (16 * x**8 - 64 * x**6 + 120 * x**4 + 45) ** 2)


def deep_phi2_closed(x):
    return (
        -4
        * math.sqrt(3)
        * np.exp(-x * x / 2)
        * x
        * (8 * x**6 - 4 * x**4 + 10 * x**2 + 15)
        / (math.pi**0.25 * (8 * (2 * x**4 - 8 * x**2 + 15) * x**4 + 45))
    )


def deep_phi4_closed(x):
    return (
        -2
        * np.exp(-x * x / 2)
        * x
        * (16 * x**8 + 72 * x**4 - 135)
        / (math.sqrt(3) * math.pi**0.25 * (8 * (2 * x**4 - 8 * x**2 + 15) * x**4 + 45))
    )


def test_base_potential():
    xs = np.linspace(0.0, 4.0, 9)
    np.testing.assert_allclose(truncated_oscillator_v(xs), xs * xs / 2)


def test_base_state_energies_and_indices():
    assert BaseState("odd", 0).energy == 1.5
    assert BaseState("odd", 2).energy == 5.5
    assert BaseState("even", 0).energy == 0.5
    assert BaseState("even", 1).hermite_index == 2
    assert BaseState("odd", 1).hermite_index == 3
    with pytest.raises(ValueError):
        BaseState("both", 0)
    with pytest.raises(ValueError):
        BaseState("odd", -1)


def test_base_states_are_unit_normalized_on_half_line():
    xs = np.linspace(0.0, 6.0, 25)
    for branch, n in [("odd", 0), ("odd", 3), ("even", 0), ("even", 2)]:
        s = BaseState(branch, n)
        val, _ = quad(lambda x: base_state_value(s, x) ** 2, 0, 12, limit=200)
        assert val == pytest.approx(1.0, rel=1e-10)
        # the plain frame v_n = psi^(n) e^{x^2/2} solves the oscillator's ODE, v_2 = (x^2 - 2E) v_0
        v = s.scaled_derivatives(xs, 2)
        np.testing.assert_allclose(v[0] * np.exp(-xs * xs / 2), base_state_value(s, xs), rtol=1e-15)
        scale = np.abs(v).max(axis=0)
        assert np.all(np.abs(v[2] - (xs * xs - 2 * s.energy) * v[0]) <= 1e-14 * scale)


def test_ground_state_closed_form():
    # psi_0 = 2 x e^{-x^2/2} / pi^{1/4} (doubled half-line normalization of H_1)
    xs = np.linspace(0.0, 4.0, 9)
    expected = 2 * xs * np.exp(-xs * xs / 2) / math.pi**0.25
    np.testing.assert_allclose(base_state_value(BaseState("odd", 0), xs), expected, rtol=1e-13)


def test_first_order_partner_closed_form():
    p = PartnerPotential(seeds=(make_seed(1.5, ODD),))
    xs = np.linspace(0.2, 5.0, 17)
    np.testing.assert_allclose(partner_v(p, xs), xs * xs / 2 + 1 + 1 / xs**2, rtol=1e-11)


def test_second_order_partner_is_shifted_oscillator():
    p = PartnerPotential(seeds=(make_seed(0.5, EVEN), make_seed(1.5, ODD)))
    xs = np.linspace(0.2, 5.0, 17)
    np.testing.assert_allclose(partner_v(p, xs), xs * xs / 2 + 2, rtol=1e-10)


def test_fourth_order_partner_matches_rational_closed_form():
    xs = np.linspace(0.1, 6.0, 60)
    np.testing.assert_allclose(partner_v(DEEP, xs), deep_v_closed(xs), atol=1e-9)


def test_partner_requires_increasing_energies():
    with pytest.raises(ValueError):
        PartnerPotential(seeds=(make_seed(1.5, ODD), make_seed(0.5, EVEN)))


def test_order_zero_partner_is_identity():
    p = PartnerPotential(seeds=())
    xs = np.linspace(0.3, 3.0, 7)
    np.testing.assert_allclose(partner_v(p, xs), xs * xs / 2)
    s = BaseState("odd", 1)
    np.testing.assert_allclose(
        transformed_eigenfunction(p, s, xs), base_state_value(s, xs)
    )


def test_transformed_state_rejects_degenerate_energy():
    p = PartnerPotential(seeds=(make_seed(1.5, ODD),))
    with pytest.raises(DegenerateEnergyError):
        transformed_eigenfunction(p, BaseState("odd", 0), 1.0)


def test_transformed_states_stay_unit_normalized():
    grid = Grid(x_min=1e-4, x_max=10.0, n=3000)
    xs = np.linspace(grid.x_min, grid.x_max, grid.n + 2)
    for p in (
        PartnerPotential(seeds=(make_seed(1.0, ODD),)),
        PartnerPotential(seeds=(make_seed(0.7, EVEN), make_seed(1.2, ODD))),
        DEEP,
    ):
        for n in (0, 1):
            vals = transformed_eigenfunction(p, BaseState("odd", n), xs)
            norm = simpson(vals * vals, x=xs)
            assert norm == pytest.approx(1.0, rel=1e-6)


def test_first_order_added_candidate_is_inverse_seed():
    u = make_seed(1.0, ODD)
    p = PartnerPotential(seeds=(u,))
    xs = np.linspace(0.3, 3.0, 9)
    prod = added_state(p, 1, xs) * seed_value(u, xs)
    np.testing.assert_allclose(np.abs(prod), np.ones_like(xs), rtol=1e-11)
    with pytest.raises(IndexError):
        added_state(p, 2, xs)


def test_deep_added_states_match_closed_forms_up_to_one_constant():
    xs = np.linspace(0.15, 6.0, 50)
    for j, closed in ((2, deep_phi2_closed), (4, deep_phi4_closed)):
        raw = added_state(DEEP, j, xs)
        target = closed(xs)
        c = target[np.argmin(np.abs(xs - 1.0))] / raw[np.argmin(np.abs(xs - 1.0))]
        np.testing.assert_allclose(c * raw, target, rtol=1e-8)


def test_normalize_examples():
    # x_min far below 1e-4: the quadrature starts at x_min, and the even
    # Gaussian example would otherwise lose ~1e-4 of its mass before the grid
    grid = Grid(x_min=1e-9, x_max=10.0, n=3000)
    s = BaseState("odd", 0)
    xs = grid.closed_points
    assert normalize(base_state_value(s, xs), grid) == pytest.approx(1.0, rel=1e-8)
    assert normalize(2 * base_state_value(s, xs), grid) == pytest.approx(0.5, rel=1e-8)
    # integral of e^{-x^2} over the half line is sqrt(pi)/2
    got = normalize(np.exp(-xs**2 / 2), grid)
    assert got == pytest.approx((math.sqrt(math.pi) / 2) ** -0.5, rel=1e-8)


def test_normalize_rejects_non_decaying_and_null_functions():
    grid = Grid(x_min=1e-4, x_max=10.0, n=1000)
    with pytest.raises(NonNormalizableError):
        normalize(np.ones_like(grid.closed_points), grid)
    with pytest.raises(NonNormalizableError):
        normalize(np.zeros_like(grid.closed_points), grid)


def test_transformed_states_are_mutually_orthogonal():
    xs = np.linspace(1e-4, 10.0, 4001)
    states = [
        transformed_eigenfunction(DEEP, BaseState("odd", n), xs) for n in range(3)
    ]
    states.append(added_state(DEEP, 2, xs))
    states.append(added_state(DEEP, 4, xs))
    for i in range(len(states)):
        ni = math.sqrt(simpson(states[i] * states[i], x=xs))
        for j in range(i + 1, len(states)):
            nj = math.sqrt(simpson(states[j] * states[j], x=xs))
            overlap = simpson(states[i] * states[j], x=xs) / (ni * nj)
            assert abs(overlap) < 1e-5


# the order-8 class-B plan whose partner loses its digits near x = 9.8
KNOWN_FAILURE = (0.616, 0.805, 0.92, 1.124, 1.215, 1.233, 1.4, 1.405)


@pytest.mark.parametrize("eps", [(-5.5, -4.5, -3.5, -2.5), KNOWN_FAILURE])
def test_seed_table_reads_are_pure(eps):
    # W's LU factors the table's orders 0..k-1 in place; no read may write the table, its
    # factors among them, and the orders k and k+1 stay the seeds' frame
    p = make_plan(eps).partner()
    k = len(eps)
    x = Grid(n=400).closed_points
    table = SeedTable(p, x)
    (_, part), = table.parts
    # Kummer-frame orders 0..k+1 of every seed, in the table's own dtype: the states need 0..k,
    # the potential k+1
    seeds = np.stack([kummer_frame((u,), x, k + 1, dtype=part.dtype)[:, 0]
                      for u in p.seeds], axis=1)
    held = [a.copy() for a in (part.sw, part.lw)]
    held_bytes = [a.tobytes() for a in (part.table, part.lu._colscale, part.lu._perm)]
    # (argument, read, the public function, the highest order that function builds)
    reads = [(BaseState(b, n), SeedTable.state, transformed_eigenfunction, k)
             for b in ("odd", "even") for n in range(4)]
    reads += [(j, SeedTable.added, added_state, k - 1) for j in range(1, k + 1)]
    reads += [(None, lambda t, _: t.potential(), lambda p, _, x: partner_v(p, x), k + 1)]
    first = [read(table, arg) for arg, read, _, _ in reads]
    again = [read(table, arg) for arg, read, _, _ in reversed(reads)][::-1]
    for (arg, read, fresh, top), a, b in zip(reads, first, again):
        assert a.tobytes() == b.tobytes()
        # a public function reads a table of the orders it needs, as the same read of such a table
        assert read(SeedTable(p, x, top), arg).tobytes() == fresh(p, arg, x).tobytes()
    assert first[-1].tobytes() == partner_v(p, x).tobytes()
    assert [a.tobytes() for a in (part.table, part.lu._colscale, part.lu._perm)] == held_bytes
    # longdouble padding bytes are undefined, so the fresh frame and the held arrays compare by value
    np.testing.assert_array_equal(part.table[k:], seeds[k:])
    for a, b in zip(held, (part.sw, part.lw)):
        np.testing.assert_array_equal(a, b)


def test_seed_table_holds_its_table_and_a_block_of_temporaries():
    # the known failure on Grid(): 4002 points in longdouble at k = 8, a 5.1 MB table.  W's LU
    # factors the table in place, and the frame and the elimination hold their k^2 x points
    # temporaries to a block of points, so building it and reading Vt, four states and every
    # candidate peaks 3.2 MB above the table, within 3.5 MiB: the LU's column scales, row order
    # and y = M^-1 e_k, and a read's k x points arrays (a state's column or e_{k-1}, the solve and
    # its products) are whole.  When the LU copied the table and the frame's temporaries were
    # whole, the peak was 14.1 MB
    p = make_plan(KNOWN_FAILURE).partner()
    x = Grid().closed_points
    assert p.table_dtype is WORK_DTYPE  # the probe's tables come before the count
    tracemalloc.start()
    try:
        table = SeedTable(p, x)
        table.potential()
        for n in range(4):
            table.state(BaseState("odd", n))
        for j in range(1, len(KNOWN_FAILURE) + 1):
            table.added(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (_, part), = table.parts
    assert part.table.nbytes > 5e6
    assert peak < part.table.nbytes + 3.5 * 2**20


def _same_bits(x, y):
    """Equal values and signs: the same bits, without reading a longdouble's padding bytes."""
    return np.array_equal(x, y, equal_nan=True) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("block_bytes", [BLOCK_BYTES, 1 << 14])
@pytest.mark.parametrize("eps", [KNOWN_FAILURE, (0.6, 0.8, 1.1, 1.4)])
def test_a_grid_table_is_bitwise_the_same_points_in_other_blocks(eps, block_bytes, monkeypatch):
    # a longdouble and a float64 plan on 4002 points, whose frame and LU take several blocks of
    # points (the float64 frame only with the small blocks): W's sign and log, Vt, states and
    # y = M^-1 e_k equal those of the same points built in slices of other sizes, and built alone,
    # among them the points on either side of a block's end
    monkeypatch.setattr(seeds, "BLOCK_BYTES", block_bytes)
    p = make_plan(eps).partner()
    x = Grid().closed_points
    whole = SeedTable(p, x)
    (_, part), = whole.parts
    block = block_bytes // part.table[..., :1].nbytes  # the frame's points a block
    assert block < x.size or block_bytes == BLOCK_BYTES and eps != KNOWN_FAILURE
    reads = [lambda t: t.sw, lambda t: t.parts[0][1].lw, lambda t: t.potential(),
             lambda t: t.state(BaseState("odd", 1)), lambda t: t.state(BaseState("even", 2)),
             lambda t: t.parts[0][1].lu.last]
    want = [read(whole) for read in reads]
    for size in (333, 700, 1500):
        for start in range(0, x.size, size):
            piece = SeedTable(p, x[start : start + size])
            for read, w in zip(reads, want):
                assert _same_bits(read(piece), w[..., start : start + size])
    ends = {i for end in range(block, x.size, block) for i in (end - 1, end)}
    for i in sorted(ends | {0, x.size - 1} | set(range(5, x.size, 401))):
        alone = SeedTable(p, x[i : i + 1])
        for read, w in zip(reads, want):
            assert _same_bits(read(alone), w[..., i : i + 1])


def test_reads_where_w_vanishes_name_those_points_alone():
    # one sign of a 4002-point grid table set to 0: the state and candidate reads raise, and
    # the message names that point, not the whole batch
    x = Grid().closed_points
    table = SeedTable(DEEP, x)
    (_, part), = table.parts
    for i in (0, 1234, x.size - 1):
        part.sw = table.sw.copy()
        part.sw[i] = 0
        for read in (lambda: table.state(BaseState("odd", 1)), lambda: table.added(2)):
            with pytest.raises(SingularWronskianError) as err:
                read()
            assert str(err.value).endswith(f"near x = {x[i : i + 1]}")
    lone = SeedTable(DEEP, 1.0)
    (_, part), = lone.parts
    part.sw = np.zeros_like(lone.sw)
    with pytest.raises(SingularWronskianError, match=r"near x = 1\.0$"):
        lone.added(1)


def test_potential_and_candidates_share_one_solve(monkeypatch):
    # Vt reads y = M^-1 e_k and y' = M^-1 e_{k-1}, every candidate y alone: W's LU solves for y
    # once, whichever is read first, so Vt and the four candidates make two solves in either order
    x = Grid(n=400).closed_points
    tables = SeedTable(DEEP, x), SeedTable(DEEP, x)  # the dtype probe's solves come before the count
    solves, solve = [], WronskianLU.solve
    monkeypatch.setattr(WronskianLU, "solve", lambda self, b: solves.append(b) or solve(self, b))
    reads = [lambda t: t.potential()] + [lambda t, j=j: t.added(j) for j in range(1, 5)]
    for table, order in zip(tables, (reads, reads[::-1])):
        solves.clear()
        for read in order:
            read(table)
        assert [int(np.flatnonzero(b[:, 0])[0]) for b in solves] == [3, 2]  # e_k, then e_{k-1}


@pytest.mark.parametrize("eps", [(-5.5, -4.5, -3.5, -2.5), KNOWN_FAILURE])
def test_seed_table_potential_is_partner_v(eps):
    # test_seed_table_reads_are_pure compares on a grid; here off-grid points, a batch that
    # straddles FLOAT64_X_MAX and a scalar
    p = make_plan(eps).partner()
    for x in (np.linspace(0.05, 9.9, 7), np.linspace(0.05, 13.9, 7), 2.5):
        got = SeedTable(p, x).potential()
        assert got.dtype == np.float64
        assert got.tobytes() == np.asarray(partner_v(p, x)).tobytes()  # a Python float for a scalar
        if eps == KNOWN_FAILURE:
            # partner_v is a SeedTable read; wronskian's longdouble path is independent of it
            assert p.table_dtype is WORK_DTYPE
            want = truncated_oscillator_v(x) - log_w_second_deriv(p.seeds, x)
            assert got.tobytes() == np.asarray(want).tobytes()


def test_every_partner_read_requires_positive_x():
    reads = [lambda x: partner_v(DEEP, x), lambda x: added_state(DEEP, 2, x),
             lambda x: transformed_eigenfunction(DEEP, BaseState("odd", 1), x),
             lambda x: SeedTable(DEEP, x)]
    for read in reads:
        for x in (0.0, np.nan, np.inf, np.array([1.0, -1.0]), np.array([1.0, np.nan])):
            with pytest.raises(DomainError):
                read(x)


# every exported read that takes x: (read, closed), closed when the read is defined at x = 0 too
POINT_READS = {
    "partner_v": (lambda x: susyq.partner_v(DEEP, x), False),
    "transformed_eigenfunction":
        (lambda x: susyq.transformed_eigenfunction(DEEP, BaseState("odd", 1), x), False),
    "added_state": (lambda x: susyq.added_state(DEEP, 2, x), False),
    "seed_value": (lambda x: susyq.seed_value(DEEP.seeds[1], x), True),
    "seed_derivs": (lambda x: susyq.seed_derivs(DEEP.seeds[1], x, 2), False),
    "base_state_value": (lambda x: susyq.base_state_value(BaseState("even", 1), x), True),
    "truncated_oscillator_v": (susyq.truncated_oscillator_v, True),
    "det_orders": (lambda x: susyq.det_orders(DEEP.seeds, [0, 1, 2, 4], x), False),
    "wronskian": (lambda x: susyq.wronskian(DEEP.seeds, x), False),
    "wronskian_minor": (lambda x: susyq.wronskian_minor(DEEP.seeds, 3, x), False),
    "log_w_second_deriv": (lambda x: susyq.log_w_second_deriv(DEEP.seeds, x), False),
}


@pytest.mark.parametrize("name", POINT_READS)
def test_every_exported_read_keeps_the_point_contract(name):
    # one contract (seeds.half_line, seeds.as_float): non-finite or out-of-domain x is a
    # DomainError, a scalar gives a Python float and an array comes back in its own shape
    read, closed = POINT_READS[name]
    bad = [np.nan, np.inf, -np.inf, -1.0, np.array([1.0, np.nan]), np.array([[1.0], [-1.0]])]
    for x in bad + ([] if closed else [0.0, np.array([0.0, 1.0])]):
        with pytest.raises(DomainError):
            read(x)
    lead = (3,) if name == "seed_derivs" else ()  # the orders u, u', u''
    for x in [1.5, np.array([1.5]), np.linspace(0.5, 3.0, 6).reshape(2, 3)] + ([0.0] if closed else []):
        got = read(x)
        if lead or np.ndim(x):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == lead + np.shape(x)
        else:
            assert type(got) is float


def test_seed_table_point_alone_equals_the_point_in_a_grid_batch():
    # a longdouble plan, a float64 plan, and a grid that straddles FLOAT64_X_MAX, whose points
    # beyond it run in longdouble
    for eps, x_max in [(KNOWN_FAILURE, 10.0), ((0.6, 0.8, 1.1, 1.4), 10.0),
                       ((0.6, 0.8, 1.1, 1.4), 14.0)]:
        p = make_plan(eps).partner()
        k = len(eps)
        x = Grid(x_max=x_max).closed_points
        reads = [lambda t: t.potential(), lambda t: t.state(BaseState("odd", 2)),
                 lambda t: t.state(BaseState("even", 0)), lambda t: t.added(1),
                 lambda t: t.added(k)]
        batch = SeedTable(p, x)
        assert [part.dtype for _, part in batch.parts] == (
            [np.float64, WORK_DTYPE] if x_max > FLOAT64_X_MAX else [p.table_dtype])
        for read in reads:
            vals = read(batch)
            for i in list(range(1, x.size, 400)) + [x.size - 2, x.size - 1]:
                assert read(SeedTable(p, x[i : i + 1])).tobytes() == vals[i : i + 1].tobytes()


@pytest.mark.parametrize("eps", [(0.6, 0.8, 1.1, 1.4), (1.7, 2.2), (2.6, 2.75, 3.0, 3.4)])
def test_float64_tables_match_longdouble_on_the_closed_grid(eps):
    # the probe sees 24 points; the grid's worst point is 5-16 times the worst probe on valid plans
    p = make_plan(eps).partner()
    assert p.table_dtype is np.float64
    x = Grid().closed_points
    want = truncated_oscillator_v(x) - log_w_second_deriv(p.seeds, x)  # longdouble table
    assert np.all(np.abs(SeedTable(p, x).potential() - want) <= 1e-9 * np.maximum(1, np.abs(want)))


# one plan per order 1-8 in the interval the rules allow for it; order 8 is the known failure
PLANS = [(-1.3,), (1.7, 2.2), (0.6, 0.9, 1.3), (0.6, 0.8, 1.1, 1.4), (-4.0, -3.0, -1.9, -0.8, 0.2),
         (2.6, 2.75, 2.9, 3.0, 3.2, 3.4), (-5.0, -4.2, -3.1, -2.0, -1.1, -0.4, 0.3), KNOWN_FAILURE]


@pytest.mark.parametrize("eps", PLANS)
def test_seed_table_reads_match_the_determinant_formulas(eps):
    # states W(u_1..u_k, psi)/W and candidates W(minor_j)/W as (k +- 1)-row determinants over W's,
    # against the table's solves; both read one seed table, so only the rounding of the two
    # eliminations differs, amplified by W's conditioning.  Up to x = 5 the known failure's
    # determinants are themselves ~1e-9 off mpmath, so it is held to 1e-10 up to x = 4 only.
    k = len(eps)
    x = Grid().closed_points
    (_, t), = SeedTable(make_plan(eps).partner(), x[x <= (4.0 if eps == KNOWN_FAILURE else 5.0)]).parts
    # the frame the table held before W's LU overwrote its orders 0..k-1: the same points and dtype
    stack = scaled_stack(t.p.seeds, t.x, k + 1, dtype=t.dtype)
    # the probe takes float64 for orders 1-5 (and this order-7 plan) and keeps longdouble for
    # the order-6 plan and the known failure
    assert t.dtype is (WORK_DTYPE if k in (6, 8) else np.float64)
    pairs = []
    for s in (BaseState(b, n) for b in ("odd", "even") for n in range(4)):
        if s.energy in eps:
            continue
        column = s.kummer_frame(t.x, k, dtype=WORK_DTYPE)[:, None]
        s_num, l_num = sign_log_det_orders(np.concatenate([stack[: k + 1], column], axis=1),
                                           list(range(k + 1)))
        scale = math.fsum(math.log(abs(s.energy - e)) for e in eps) / 2 + k * math.log(2) / 2
        pairs.append((t.state(s), s_num * t.sw * np.exp(l_num - t.lw - t.half_x2 - scale)))
    for j in range(1, k + 1):
        minor = [i for i in range(k) if i != j - 1]
        s_num, l_num = sign_log_det_orders(stack[:, minor], list(range(k - 1)))
        pairs.append((t.added(j), s_num * t.sw * np.exp(l_num - t.lw + t.half_x2)))
    for got, want in pairs:
        want = np.asarray(want, dtype=float)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_known_failure_validates_with_no_wronskian_zeros():
    # the sign of W on the default grid stays clear of rounding noise for this plan
    assert validate(make_plan(KNOWN_FAILURE), Grid()).wronskian_zeros == []


@pytest.mark.parametrize("n", [599, 600, 4000, 8001])
def test_normalize_is_scipy_simpson_on_the_closed_grid(n):
    # n + 2 closed points: an odd count takes plain composite Simpson,
    # an even one Cartwright's correction for the last interval
    grid = Grid(n=n)
    x = grid.closed_points
    f = x * np.exp(-x * x / 2) * (1 + 0.5 * np.sin(3 * x))
    expected = 1 / math.sqrt(simpson(f * f, x=x))
    assert abs(normalize(f, grid) - expected) <= 1e-15 * expected


def _mp_partner_v(mpmath, eps, parities, x):
    """x^2/2 - W''/W + (W'/W)^2 from 40-digit determinants of the seeds' derivatives u^(n)."""
    k, x = len(eps), mpmath.mpf(x)
    z, g = x * x, mpmath.exp(-x * x / 2)
    cols = []
    for e, parity in zip(map(mpmath.mpf, eps), parities):
        b = mpmath.mpf(1) / 2 if parity == 1 else mpmath.mpf(3) / 2
        a = (2 * b - 2 * e) / 4
        m, dm = mpmath.hyp1f1(a, b, z), a / b * mpmath.hyp1f1(a + 1, b + 1, z)
        if parity == 1:
            col = [g * m, g * x * (2 * dm - m)]
        else:
            col = [g * x * m, g * (m + 2 * z * dm - z * m)]
        for n in range(k):  # u'' = (x^2 - 2e) u, differentiated n times
            nxt = (z - 2 * e) * col[n] + (2 * n * x * col[n - 1] if n else 0)
            col.append(nxt + (n * (n - 1) * col[n - 2] if n >= 2 else 0))
        cols.append(col)

    def det(orders):
        return mpmath.det(mpmath.matrix([[c[o] for c in cols] for o in orders]))

    w = det(range(k))
    w1 = det(list(range(k - 1)) + [k])
    w2 = det(list(range(k - 1)) + [k + 1]) + (det(list(range(k - 2)) + [k - 1, k]) if k >= 2 else 0)
    return float(z / 2 - w2 / w + (w1 / w) ** 2)


@pytest.mark.parametrize("eps, tol", [
    ((0.6, 0.75, 0.9, 1.0, 1.2, 1.4), 1e-8),
    ((0.61, 0.88, 0.987, 1.212, 1.318, 1.422), 1e-8),
    ((2.6, 2.75, 2.9, 3.0, 3.2, 3.4), 1e-8),
    ((1.6, 1.9, 2.1, 2.4), 1e-8),
    ((-4.0, -3.0, -1.9, -0.8, 0.2), 1e-8),
    ((0.6, 0.9, 1.3), 1e-8),
    (KNOWN_FAILURE, 1e-5),  # order 8 with gaps of 0.018 and 0.005
])
def test_partner_matches_mpmath_on_the_whole_grid(eps, tol, monkeypatch):
    # the Kummer-frame table keeps W's matrix well conditioned up to x_max: in the plain frame
    # the first order-6 plan was off by 1.4e-2 at x = 6 and by 27 at x = 9.99
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mpmath.mp, "dps", 40)
    plan = make_plan(eps)
    x = np.array([1e-4, 0.05, 1.3, 3.7, 6.0, 7.0, 8.0, 9.0, 9.99, 10.0])
    got = partner_v(plan.partner(), x)
    want = np.array([_mp_partner_v(mpmath, eps, [int(q) for q in plan.parities], xi) for xi in x])
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
