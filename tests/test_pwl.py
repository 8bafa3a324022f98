"""Piecewise-linear activation tables: construction, reduction, evaluation."""

import bisect
import heapq
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from test_graph import _arrays

from irnn import graph, pwl
from irnn.attention import AttentionPlan
from irnn.fixedpoint import FxOverflow, rounded_shift
from irnn.pwl import (
    ACTIVATIONS,
    activation_registry,
    build_full,
    eval_float,
    eval_int,
    fit,
    from_points,
    reduce,
)
from irnn.quant import QuantParams, dequantize, derive_params, quantize
from irnn.rnn import CellConfig, IntLstmCell


def _params_for(name, bits=8):
    fn, (lo, hi) = activation_registry(name)
    in_p = derive_params(lo, hi, bits)
    if name == "sigmoid" or name == "exp":
        out_p = derive_params(0.0, 1.0, 8)
    elif name == "tanh" or name == "cos":
        out_p = derive_params(-1.0, 1.0, 8)
    else:
        grid = fn(np.linspace(lo, hi, 4097))
        out_p = derive_params(min(float(grid.min()), 0.0), max(float(grid.max()), 0.0), 8)
    return fn, in_p, out_p


class TestRegistry:
    def test_known_names(self):
        for name in ("sigmoid", "tanh", "exp", "cos", "gelu"):
            fn, (lo, hi) = activation_registry(name)
            assert lo < hi
            assert np.isfinite(fn(np.array([lo, hi]))).all()

    def test_scalar_input_gives_float64(self):
        # a 0-d input, such as one knot, gives a float64 like an array's
        for name in sorted(ACTIVATIONS):
            fn, (lo, hi) = activation_registry(name)
            xs = np.linspace(lo, hi, 7)
            for x, want in zip(xs, fn(xs)):
                got = fn(x)
                assert np.asarray(got).dtype == np.float64, name
                assert float(got) == pytest.approx(float(want), rel=1e-15, abs=1e-300), name

    def test_conventional_ranges(self):
        assert activation_registry("tanh")[1] == (-8.0, 8.0)
        assert activation_registry("exp")[1] == (-10.0, 0.0)
        lo, hi = activation_registry("cos")[1]
        assert lo == pytest.approx(-np.pi) and hi == pytest.approx(np.pi)

    def test_tanh_saturates_outside_clip(self):
        # |tanh| is within 1e-6 of 1 beyond the clip bound
        assert 1.0 - abs(np.tanh(8.0)) < 1e-6

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation_registry("swish")


class TestBuildFull:
    def test_full_grid_is_lut(self):
        # one knot per code: integer eval must equal the quantized LUT
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        assert table.pieces == 255
        codes = np.arange(256)
        lut = quantize(fn(dequantize(codes, in_p)), out_p)
        np.testing.assert_array_equal(eval_int(table, codes), lut)

    def test_identity_slopes_are_one(self):
        in_p = derive_params(-1, 1, 8)
        out_p = derive_params(-1, 1, 8)
        table = build_full(lambda x: x, in_p, out_p)
        np.testing.assert_allclose(table.slopes, 1.0, rtol=1e-9)

    def test_sigmoid_intercept_at_origin(self):
        fn, in_p, out_p = _params_for("sigmoid")
        table = build_full(fn, in_p, out_p)
        k0 = np.flatnonzero(table.q_knots == in_p.zero_point)[0]
        assert table.knots[k0] == 0.0
        assert table.intercepts[k0] == 0.5

    def test_nonfinite_rejected(self):
        in_p = derive_params(-1, 1, 8)
        out_p = derive_params(-1, 1, 8)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="nonfinite-activation"):
                build_full(lambda x: np.log(x), in_p, out_p)


class TestReduce:
    def test_noop_budget(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        assert reduce(table, 255) is table
        assert reduce(table, 400) is table

    def test_linear_collapses_to_one_piece(self):
        in_p = derive_params(-1, 1, 8)
        table = build_full(lambda x: x, in_p, derive_params(-1, 1, 8))
        small = reduce(table, 1)
        assert small.pieces == 1
        xs = dequantize(np.arange(256), in_p)
        np.testing.assert_allclose(eval_float(small, xs), xs, atol=1e-12)

    def test_most_similar_pair_merges_first(self):
        # slopes 1.0 / 1.01 / 5.0: the knot between the first two goes
        in_p = derive_params(0, 3, 8)
        out_p = derive_params(0, 8, 8)
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.0, 1.0, 2.01, 7.01])
        table = from_points(xs, ys, in_p, out_p)
        two = reduce(table, 2)
        np.testing.assert_allclose(two.knots, [0.0, 2.0, 3.0])
        np.testing.assert_allclose(two.intercepts, [0.0, 2.01])

    def test_budget_sweep_error_nonincreasing(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        grid = dequantize(np.arange(256), in_p)
        truth = fn(grid)
        errs = []
        for budget in (4, 8, 16, 32):
            g = eval_float(reduce(table, budget), grid)
            errs.append(np.abs(g - truth).max())
        assert errs == sorted(errs, reverse=True)

    def test_knots_stay_subset_of_grid(self):
        fn, in_p, out_p = _params_for("cos")
        table = build_full(fn, in_p, out_p)
        small = reduce(table, 7)
        assert small.pieces == 7
        assert set(small.q_knots.tolist()) <= set(table.q_knots.tolist())
        assert small.q_knots[0] == 0 and small.q_knots[-1] == in_p.qmax

    def test_deterministic(self):
        fn, in_p, out_p = _params_for("gelu")
        t1 = reduce(build_full(fn, in_p, out_p), 12)
        t2 = reduce(build_full(fn, in_p, out_p), 12)
        np.testing.assert_array_equal(t1.q_knots, t2.q_knots)
        np.testing.assert_array_equal(t1.fx_slopes, t2.fx_slopes)

    def test_invalid_budget(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        with pytest.raises(ValueError, match="invalid-budget"):
            reduce(table, 0)


def _reference_pops(ks: list, ys: list, pieces: int) -> list:
    """The greedy merge as a scalar heap loop: the knots it removes, in order."""
    n = len(ks)
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    alive = [True] * n
    stamp = [0] * n

    def slope(i: int, j: int) -> float:
        return (ys[j] - ys[i]) / (ks[j] - ks[i])

    def cost(j: int) -> float:
        return abs(slope(prev[j], j) - slope(j, nxt[j]))

    heap = [(cost(j), j, 0) for j in range(1, n - 1)]
    heapq.heapify(heap)
    remaining = n - 1
    pops = []

    while remaining > pieces:
        c, j, s = heapq.heappop(heap)
        if not alive[j] or s != stamp[j] or prev[j] < 0 or nxt[j] >= n:
            continue
        alive[j] = False
        pops.append(j)
        lo, hi = prev[j], nxt[j]
        nxt[lo], prev[hi] = hi, lo
        remaining -= 1
        for nb in (lo, hi):
            if alive[nb] and prev[nb] >= 0 and nxt[nb] < n:
                stamp[nb] += 1
                heapq.heappush(heap, (cost(nb), nb, stamp[nb]))

    return pops


def _reference_knots(ks: list, ys: list, pieces: int) -> list:
    gone = set(_reference_pops(ks, ys, pieces))
    return [i for i in range(len(ks)) if i not in gone]


@pytest.fixture
def merge_paths(monkeypatch):
    """Counts the certified rounds and the scalar merges that reduce runs."""
    calls = Counter()
    for name in ("_certified", "_scalar_merge"):
        real = getattr(pwl, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pwl, name, counted)
    return calls


def _assert_reduce_is_reference(t, pieces):
    values = t.values
    keep = _reference_knots(t.knots.tolist(), values.tolist(), pieces)
    got = reduce(t, pieces)
    np.testing.assert_array_equal(got.knots, t.knots[keep])
    np.testing.assert_array_equal(got.q_knots, t.q_knots[keep])
    want = from_points(t.knots[keep], values[keep], t.in_params, t.out_params)
    np.testing.assert_array_equal(got.fx_slopes, want.fx_slopes)
    np.testing.assert_array_equal(got.fx_intercepts, want.fx_intercepts)


class TestMergeRounds:
    """reduce removes exactly the knots of the one-pop-at-a-time loop."""

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_activations_match_reference(self, name, merge_paths):
        # 3x wider ranges put tanh and sigmoid deep in saturation, where
        # costs tie or sit at float noise and the scalar merge takes over
        fn, (lo, hi) = activation_registry(name)
        out_p = _params_for(name)[2]
        for bits, budgets in ((8, (1, 2, 8, 32, 100)), (16, (32,))):
            for width in (1, 3):
                in_p = derive_params(lo * width, hi * width, bits)
                table = build_full(fn, in_p, out_p)
                for pieces in budgets:
                    _assert_reduce_is_reference(table, pieces)
        assert merge_paths["_certified"] > 0
        assert merge_paths["_scalar_merge"] > 0

    def test_random_tables_match_reference(self, merge_paths):
        rng = np.random.default_rng(7)
        in_p = derive_params(-1.0, 1.0, 8)
        xs = dequantize(np.arange(256), in_p)
        for trial in range(30):
            kind = trial % 3
            if kind == 0:  # exact ties
                ys = rng.integers(-3, 4, size=256).astype(np.float64)
            elif kind == 1:  # flat runs
                ys = np.repeat(rng.normal(size=32), 8)
            else:  # a random walk with noise
                ys = np.cumsum(rng.normal(size=256)) + 1e-9 * rng.normal(size=256)
            out_p = derive_params(min(ys.min(), 0.0), max(ys.max(), 0.0), 8)
            table = from_points(xs, ys, in_p, out_p)
            for pieces in (1, 2, 8, 32, 100):
                _assert_reduce_is_reference(table, pieces)
        assert merge_paths["_certified"] > 0
        assert merge_paths["_scalar_merge"] > 0

    def test_certified_batch_is_the_next_pops(self):
        # each round's batch, in order, is what the scalar loop pops next;
        # small tables with exact ties and uneven spacing reach the cases
        # where a knot loses both neighbours in one batch
        rng = np.random.default_rng(0)
        certified = 0
        for trial in range(3000):
            n = int(rng.integers(6, 12))
            if trial % 3 == 0:
                ys = rng.integers(-3, 4, size=n).astype(np.float64)
                ks = np.arange(n, dtype=np.float64)
            elif trial % 3 == 1:
                ys = rng.normal(size=n)
                ks = np.cumsum(rng.uniform(0.2, 2.0, size=n))
            else:
                ys = rng.integers(-3, 4, size=n).astype(np.float64)
                ks = np.cumsum(rng.integers(1, 4, size=n)).astype(np.float64)
            path = pwl._Path(ks, ys)
            got = pwl._certified(path, path.live()).tolist()
            assert got == _reference_pops(ks.tolist(), ys.tolist(), n - 1 - len(got))
            certified += len(got)
        # 4,897 at this seed; charging keys to the end knots, which have
        # none, would cut it to 4,242
        assert certified > 4500

    def test_windowed_batches_are_the_next_pops(self):
        # round after round on the live path, each over the window of knots
        # with cost at most a theta drawn from the live costs, every batch is
        # what the scalar loop pops next, and no shorter than the batch over
        # every survivor cut at theta
        rng = np.random.default_rng(1)
        seen = Counter()
        for trial in range(2000):
            n = int(rng.integers(6, 14))
            kind = trial % 5
            ks = np.cumsum(rng.integers(1, 4, size=n)).astype(np.float64)
            if kind == 0:  # exact ties
                ys = rng.integers(-3, 4, size=n).astype(np.float64)
            elif kind == 1:  # flat runs
                ys = np.repeat(rng.integers(-2, 3, size=n), rng.integers(1, 4, size=n))[:n]
                ys = ys.astype(np.float64)
                n = len(ys)
                ks = ks[:n]
            elif kind == 2:
                ys = rng.normal(size=n)
            elif kind == 3:
                ys = rng.normal(size=n)
                ks = np.cumsum(rng.uniform(0.2, 2.0, size=n))
            else:  # a line in float64: equal slopes, but not always across two
                n = int(rng.integers(20, 40))
                ks = np.cumsum(rng.choice([0.1, 0.2], size=n))
                ys = ks * rng.choice([0.7, 1.1, -1.3, 3.0]) + rng.choice([0.0, 0.1])
            want = _reference_pops(ks.tolist(), ys.tolist(), 1)
            path = pwl._Path(ks, ys)
            done = 0
            while done < len(want):
                live = path.live()
                cost = path.cost[live]
                # every other draw, theta is the smallest cost, so a window
                # may hold only knots of cost 0
                theta = cost[rng.integers(len(live))] if rng.integers(2) else cost.min()
                window = live[cost <= theta]
                got = pwl._certified(path, window)
                assert got.tolist() == want[done : done + len(got)]
                full = pwl._certified(path, live)
                assert len(got) >= np.count_nonzero(path.cost[full] <= theta)
                # where theta fell: on a tie, inside a monotone run (the
                # knot at theta has a smaller and a greater neighbour), at a
                # knot next to an end knot
                at = live[cost == theta]
                seen["tie"] += len(at) > 1
                j = at[0]
                sides = [path.cost[x] for x in (path.prev[j], path.nxt[j]) if 0 < x < path.last]
                seen["run"] += len(sides) == 2 and min(sides) < theta < max(sides)
                seen["end"] += path.prev[j] == 0 or path.nxt[j] == path.last
                # a knot of cost 0 whose removal changes its neighbours' keys
                z = window[path.cost[window] == 0]
                across = path.slope(path.prev[z], path.nxt[z])
                seen["not neutral"] += bool((across != path.right[z]).any())
                path.remove(got)
                done += len(got)
            assert np.flatnonzero(path.alive).tolist() == [0, n - 1]
        assert min(seen[k] for k in ("tie", "run", "end")) > 500, seen
        assert seen["not neutral"] > 20, seen

    @pytest.mark.parametrize(
        "name, in_p",
        [
            # the sum1 grid of a 16-bit workload cell, off centre
            ("sigmoid", QuantParams(16, 15.686614731666213 / 65535, 34302)),
            ("tanh", QuantParams(16, 15.686614731666213 / 65535, 34302)),
            ("tanh", derive_params(-4.2, 4.2, 16)),
        ],
    )
    def test_workload_grids_match_reference(self, name, in_p, merge_paths):
        fn = activation_registry(name)[0]
        table = build_full(fn, in_p, _params_for(name)[2])
        _assert_reduce_is_reference(table, 32)
        assert merge_paths["_certified"] > 0
        assert merge_paths["_scalar_merge"] > 0

    def test_one_bucket_windows_match_reference(self, monkeypatch, merge_paths):
        # each window is the one bucket of the smallest live cost, so rounds
        # are many and small
        monkeypatch.setattr(pwl, "_WINDOW_MIN", 1)
        rounds = Counter()
        real_theta = pwl._theta

        def counted(cost):
            rounds["theta"] += 1
            return real_theta(cost)

        monkeypatch.setattr(pwl, "_theta", counted)
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(50, 400))
            ks = np.cumsum(rng.uniform(0.2, 2.0, size=n))
            ys = np.cumsum(rng.normal(size=n)) * np.exp(rng.uniform(-20, 20, size=n))
            if trial % 2:
                ys = np.round(np.tanh(ks / ks[-1] * 8 - 4) * 2.0**20) / 2.0**20
            for pieces in (1, 5, n // 4):
                want = _reference_knots(ks.tolist(), ys.tolist(), pieces)
                assert pwl._surviving_knots(ks, ys, pieces).tolist() == want
        assert rounds["theta"] > 1000, rounds
        assert merge_paths["_certified"] > 0
        assert merge_paths["_scalar_merge"] > 0

    def test_theta_ends_the_kth_cost_bucket(self):
        k = pwl._WINDOW_MIN
        rng = np.random.default_rng(5)
        # no more than k costs: the window is every survivor
        assert pwl._theta(np.zeros(0)) == np.inf
        assert pwl._theta(rng.uniform(0.0, 1.0, size=k)) == np.inf
        # a k-th cost of 0: theta is below every positive normal cost
        zero = np.concatenate((np.zeros(k), rng.uniform(1.0, 2.0, size=7)))
        theta = pwl._theta(zero)
        assert 0.0 <= theta < np.finfo(np.float64).tiny
        # a k-th cost in the last finite bucket: the largest finite float
        top = np.full(k + 3, np.finfo(np.float64).max * 0.9)
        assert pwl._theta(top) == np.finfo(np.float64).max
        # an inf k-th cost: inf
        assert pwl._theta(np.concatenate((np.ones(k - 1), np.full(4, np.inf)))) == np.inf
        # otherwise theta covers the k-th cost and stops short of the next
        # bucket, whose smallest value is the next power of two or 1.5 times
        # the power of two below
        for trial in range(200):
            n = int(rng.integers(k + 1, 3 * k))
            cost = np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-300, 300)
            if trial % 4 == 0:
                cost[rng.integers(n, size=n // 2)] = 0.0
            kth = np.sort(cost)[k - 1]
            theta = pwl._theta(cost)
            assert kth <= theta < np.inf
            mant, exp = np.frexp(kth)  # kth = mant * 2^exp, mant in [0.5, 1)
            if kth >= np.finfo(np.float64).tiny:
                nxt = np.ldexp(0.75 if mant < 0.75 else 1.0, exp)
                assert theta < nxt and np.nextafter(theta, np.inf) == nxt

    def test_infinite_costs_match_reference(self):
        # every adjacent slope overflows to +-inf, so every cost is inf
        ks = np.arange(12, dtype=np.float64)
        ys = np.tile([-1e308, 1e308], 6)
        for pieces in (1, 4):
            want = _reference_knots(ks.tolist(), ys.tolist(), pieces)
            assert pwl._surviving_knots(ks, ys, pieces).tolist() == want

    def test_nan_costs_still_meet_the_budget(self):
        # slopes of +inf on both sides of a knot make its cost NaN
        ks = np.arange(12, dtype=np.float64) * 1e-10
        ys = np.arange(12, dtype=np.float64) * 1e300
        kept = pwl._surviving_knots(ks, ys, 3).tolist()
        assert len(kept) == 4 and kept[0] == 0 and kept[-1] == 11

    def test_sixteen_bit_peak_memory(self):
        # the scalar loop this replaces peaked at 17.9 MiB here
        fn, (lo, hi) = activation_registry("sigmoid")
        in_p = derive_params(lo, hi, 16)
        tracemalloc.start()
        try:
            reduce(build_full(fn, in_p, derive_params(0.0, 1.0, 8)), 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20


def _workload_tables():
    """(name, fn, in grid, out grid) of every table of an lstm 16/16 +
    MadNorm model and an encdec 8/8 model, from their own table_grids."""
    rng = np.random.default_rng(42)
    tables = []
    for kind, cfg in (("lstm", CellConfig(16, 16, use_madnorm=True)), ("encdec", CellConfig())):
        fm = graph.FloatModel(kind, _arrays(kind, rng))
        model = graph.calibrate(fm, rng.normal(0.0, 1.0, size=(4, 8, 8)), cfg)
        grids = [
            (f"{kind}.{cell}.{name}", name.partition("_")[0], g)
            for cell, c in model.cells.items()
            for name, g in IntLstmCell.table_grids(c.sites, c.weights.ws is not None).items()
        ]
        if model.attention is not None:
            sites = model.attention.weights.sites
            grids += [(f"{kind}.att.{name}", name, g)
                      for name, g in AttentionPlan.table_grids(sites).items()]
        tables += [(label, activation_registry(fn)[0], *g) for label, fn, g in grids]
    return tables


_FIELDS = ("q_knots", "values", "knots", "slopes", "intercepts", "fx_slopes",
           "fx_intercepts", "lut")


def _assert_fit_is_reduce_of_full(fn, in_p, out_p, label):
    full = build_full(fn, in_p, out_p)
    b = in_p.bitwidth
    for n in (1, 8, 32, 2**b - 2, 2**b - 1, 2**b + 5):
        got, want = fit(fn, in_p, out_p, n), reduce(full, n)
        assert (got.in_params, got.out_params) == (want.in_params, want.out_params)
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(got, name), getattr(want, name), err_msg=f"{label} {n} {name}"
            )


def _refusal(call):
    with pytest.raises(Exception) as ei:
        call()
    return type(ei.value), str(ei.value)


class TestFit:
    """fit is reduce(build_full(...)) without the full table."""

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_equals_reduce_of_full(self, name, bits):
        _assert_fit_is_reduce_of_full(*_params_for(name, bits), f"{name}/{bits}")

    def test_workload_grids_equal_reduce_of_full(self):
        tables = _workload_tables()
        assert {p.bitwidth for _, _, p, _ in tables} == {8, 16}
        for label, fn, in_p, out_p in tables:
            _assert_fit_is_reduce_of_full(fn, in_p, out_p, label)

    def test_refuses_what_the_pair_refuses(self):
        fn, in_p, out_p = _params_for("tanh")
        wide = QuantParams(32, 1e-9, 2**31)
        one_code = lambda bad: lambda x: np.where(x == x[7], bad, np.tanh(x))
        cases = [
            (fn, in_p, 0),
            (fn, wide, 32),
            (fn, wide, 0),
            (one_code(np.inf), in_p, 32),
            (one_code(np.nan), in_p, 32),
            (one_code(-np.inf), in_p, 0),
            (lambda x: 0.5, in_p, 32),
        ]
        for f, p, n in cases:
            want = _refusal(lambda: reduce(build_full(f, p, out_p), n))
            assert want[0] is ValueError
            assert _refusal(lambda: fit(f, p, out_p, n)) == want

    def test_only_the_reduced_table_must_fit(self):
        # a step over a 16-bit grid into a fine output grid: the full
        # table's one-code piece at the step has a bound near 2^66, which
        # the pair refuses; one piece across the grid proves its own
        step = lambda x: np.where(x >= 0, 1.0, 0.0)
        in_p, out_p = derive_params(-1.0, 1.0, 16), QuantParams(8, 2**-20, 0)
        with pytest.raises(FxOverflow):
            reduce(build_full(step, in_p, out_p), 1)
        t = fit(step, in_p, out_p, 1)
        assert t.q_knots.tolist() == [0, in_p.qmax]
        assert t.values.tolist() == [0.0, 1.0]

    def test_sixteen_bit_peak_memory(self):
        # reduce(build_full(...)) peaks at about 7.8 MiB here, fit at 5.9
        fn, (lo, hi) = activation_registry("sigmoid")
        in_p = derive_params(lo, hi, 16)
        tracemalloc.start()
        try:
            fit(fn, in_p, derive_params(0.0, 1.0, 8), 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20


class TestEvalFloat:
    def test_knot_exactness(self):
        fn, in_p, out_p = _params_for("sigmoid")
        table = reduce(build_full(fn, in_p, out_p), 16)
        for k in table.knots:
            assert eval_float(table, float(k)) == pytest.approx(
                float(fn(np.float64(k))), abs=1e-12
            )

    def test_midpoint_interpolates(self):
        fn, in_p, out_p = _params_for("tanh")
        table = reduce(build_full(fn, in_p, out_p), 8)
        for i in range(table.pieces):
            mid = 0.5 * (table.knots[i] + table.knots[i + 1])
            left = eval_float(table, float(table.knots[i]))
            right = float(
                table.slopes[i] * (table.knots[i + 1] - table.knots[i])
                + table.intercepts[i]
            )
            assert eval_float(table, mid) == pytest.approx(0.5 * (left + right))

    def test_matches_linear_scan_oracle(self):
        fn, in_p, out_p = _params_for("cos")
        table = reduce(build_full(fn, in_p, out_p), 23)
        rng = np.random.default_rng(42)
        xs = rng.uniform(*activation_registry("cos")[1], size=1000)
        for x in xs[:200]:
            # brute-force piece lookup
            i = 0
            while i < table.pieces - 1 and x >= table.knots[i + 1]:
                i += 1
            want = table.slopes[i] * (x - table.knots[i]) + table.intercepts[i]
            assert eval_float(table, float(x)) == pytest.approx(want, abs=1e-12)

    def test_out_of_range_clamps(self):
        fn, in_p, out_p = _params_for("tanh")
        table = reduce(build_full(fn, in_p, out_p), 16)
        assert eval_float(table, -50.0) == eval_float(table, float(table.knots[0]))
        assert eval_float(table, 50.0) == eval_float(table, float(table.knots[-1]))


class TestEvalInt:
    def test_full_grid_lut_all_named_activations(self):
        for name in ACTIVATIONS:
            fn, in_p, out_p = _params_for(name)
            table = build_full(fn, in_p, out_p)
            codes = np.arange(in_p.qmax + 1)
            lut = quantize(fn(dequantize(codes, in_p)), out_p)
            np.testing.assert_array_equal(eval_int(table, codes), lut, err_msg=name)

    def test_knots_within_one_code_of_float_path(self):
        fn, in_p, out_p = _params_for("sigmoid")
        table = reduce(build_full(fn, in_p, out_p), 16)
        for qk, k in zip(table.q_knots, table.knots):
            want = quantize(float(fn(np.float64(k))), out_p)
            assert abs(eval_int(table, int(qk)) - want) <= 1

    def test_composed_error_bound(self):
        fn, in_p, out_p = _params_for("tanh")
        table = reduce(build_full(fn, in_p, out_p), 16)
        codes = np.arange(256)
        xs = dequantize(codes, in_p)
        grid_err = np.abs(eval_float(table, xs) - fn(xs)).max()
        got = dequantize(eval_int(table, codes), out_p)
        assert np.abs(got - fn(xs)).max() <= out_p.scale / 2 + grid_err + 1e-9

    def test_scalar_in_scalar_out(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        assert isinstance(eval_int(table, 128), int)

    def test_sixteen_bit_input_grid(self):
        fn, (lo, hi) = activation_registry("exp")
        in_p = derive_params(lo, hi, 16)
        out_p = derive_params(0.0, 1.0, 8)
        table = reduce(build_full(fn, in_p, out_p), 64)
        assert table.pieces == 64
        codes = np.linspace(0, in_p.qmax, 997).astype(np.int64)
        xs = dequantize(codes, in_p)
        grid_err = np.abs(eval_float(table, xs) - fn(xs)).max()
        got = dequantize(eval_int(table, codes), out_p)
        assert np.abs(got - fn(xs)).max() <= out_p.scale / 2 + grid_err + 1e-9


def _formula(t, q: int) -> int:
    """The fixed-point piece formula at one code, in Python big ints."""
    k = [int(v) for v in t.q_knots]
    qc = min(max(q, k[0]), k[-1])
    i = min(max(bisect.bisect_right(k, qc) - 1, 0), t.pieces - 1)
    acc = int(t.fx_slopes[i]) * (qc - k[i]) + int(t.fx_intercepts[i])
    mag, rem = divmod(abs(acc), 2**pwl.TABLE_FRACTION_BITS)
    if 2 * rem >= 2**pwl.TABLE_FRACTION_BITS:
        mag += 1
    out = (mag if acc >= 0 else -mag) + t.out_params.zero_point
    return min(max(out, t.out_params.qmin), t.out_params.qmax)


class TestLut:
    def _tables(self):
        sig, in8, out8 = _params_for("sigmoid")
        tanh, _, tanh_out = _params_for("tanh")
        in16 = derive_params(-8.0, 8.0, 16)
        # knots strictly inside the grid: codes beyond them clamp
        partial = from_points(
            dequantize(np.array([40, 90, 200]), in8),
            sig(dequantize(np.array([40, 90, 200]), in8)),
            in8,
            out8,
        )
        return {
            "sigmoid-8": reduce(build_full(sig, in8, out8), 16),
            "tanh-16": reduce(build_full(tanh, in16, tanh_out), 32),
            "partial-8": partial,
        }

    def test_lut_is_the_formula_at_every_code(self):
        for name, t in self._tables().items():
            codes = range(t.in_params.qmax + 1)
            assert t.lut.dtype == t.out_params.dtype, name
            assert t.lut.tolist() == [_formula(t, q) for q in codes], name

    def test_eval_int_clamps_any_integer(self):
        t = self._tables()["partial-8"]
        qs = np.array([-(2**40), -1, 0, 40, 41, 200, 255, 256, 2**40])
        assert eval_int(t, qs).tolist() == [_formula(t, int(q)) for q in qs]

    def test_lut_is_read_only(self):
        t = self._tables()["sigmoid-8"]
        with pytest.raises(ValueError):
            t.lut[0] = 1

    def test_malformed_knots_rejected(self):
        # what a container stores is checked before anything is derived
        in8, out8 = derive_params(-8.0, 8.0, 8), derive_params(0.0, 1.0, 8)
        cases = {
            "at least two": ([3], [0.5], in8),
            "one value": ([3, 9], [0.5], in8),
            "strictly increasing": ([9, 3], [0.5, 0.6], in8),
            "storage range": ([3, 256], [0.5, 0.6], in8),
            "16-bit": ([3, 9], [0.5, 0.6], derive_params(-8.0, 8.0, 32)),
            "nonfinite": ([3, 9], [0.5, np.inf], in8),
        }
        for match, (q, v, p_in) in cases.items():
            with pytest.raises(ValueError, match=match):
                pwl.PwlTable(np.array(q), np.array(v), p_in, out8)
        # slopes past float64, and constants past the int64 bound
        for v in ([-1e308, 1e308], [0.0, 2.0**40]):
            with pytest.raises(FxOverflow):
                pwl.PwlTable(np.array([3, 9]), np.array(v), in8, out8)

    def test_rebuilt_from_knot_codes_and_values(self):
        # a table is its knot codes, values and grids: everything else is
        # derived, so rebuilding from those four gives the same table
        for name, t in self._tables().items():
            twin = pwl.PwlTable(t.q_knots, t.values, t.in_params, t.out_params)
            for field in ("knots", "slopes", "intercepts", "fx_slopes", "fx_intercepts", "lut"):
                np.testing.assert_array_equal(getattr(twin, field), getattr(t, field), name)
            np.testing.assert_array_equal(t.knots, dequantize(t.q_knots, t.in_params), name)


def _assert_forms_agree(t, label):
    """The LUT built from run boundaries equals direct evaluation, code by
    code, and each piece's runs span its outputs at its first and last codes."""
    first, runs = pwl._piece_runs(t)
    direct = pwl._expand(t)
    k = t.q_knots
    last = np.append(k[1:-1] - 1, k[-1])
    np.testing.assert_array_equal(first, direct[k[:-1]], err_msg=str(label))
    np.testing.assert_array_equal(runs, np.abs(direct[last] - first) + 1, err_msg=str(label))
    built = pwl._runs(t, first, runs)
    assert built.dtype == direct.dtype == t.out_params.dtype, label
    np.testing.assert_array_equal(built, direct, err_msg=str(label))
    np.testing.assert_array_equal(t.lut, direct, err_msg=str(label))


def _random_table(rng):
    """A from_points table on power-of-two grids, so that many accumulators
    sit exactly on a rounding tie; its values may leave the output grid."""
    bits = int(rng.choice([8, 16]))
    in_p = QuantParams(bits, 2.0 ** -int(rng.integers(2, 9)), int(rng.integers(0, 2**bits)))
    out_p = QuantParams(8, 2.0**-4, int(rng.integers(0, 256)))
    q = rng.choice(in_p.qmax + 1, size=int(rng.integers(2, 41)), replace=False)
    if rng.random() < 0.3:  # single-code pieces
        q = np.concatenate((q, q[q < in_p.qmax] + 1))
    if rng.random() < 0.3:  # knots on both grid ends, no clamped tails
        q = np.concatenate((q, [0, in_p.qmax]))
    q = np.unique(q)
    # outputs on half codes from half a grid below it to half a grid above
    codes = rng.integers(-256, 768, size=len(q)) / 2
    flat = rng.random(len(q)) < 0.25
    flat[0] = False
    for i in np.flatnonzero(flat):
        codes[i] = codes[i - 1]
    ys = (codes - out_p.zero_point) * out_p.scale
    return from_points(dequantize(q, in_p), ys, in_p, out_p)


def _piece_ends_unclipped(t):
    """Each piece's rounded output at its first and last codes, unsaturated."""
    ends = []
    for i in range(t.pieces):
        last = t.q_knots[i + 1] - t.q_knots[i] - (i < t.pieces - 1)
        for d in (0, last):
            acc = int(t.fx_slopes[i]) * int(d) + int(t.fx_intercepts[i])
            ends.append(rounded_shift(acc, pwl.TABLE_FRACTION_BITS) + t.out_params.zero_point)
    return np.array(ends).reshape(-1, 2)


def _counted_forms(monkeypatch) -> list:
    """Patch _runs and _expand to log their names, in call order, into the
    list returned."""
    calls = []
    for name in ("_runs", "_expand"):
        real = getattr(pwl, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(pwl, name, counted)
    return calls


class TestRunForm:
    """Run-boundary LUTs against direct evaluation of every code."""

    @pytest.mark.parametrize("bits", (8, 16))
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_activations(self, name, bits):
        fn, in_p, out_p = _params_for(name, bits)
        full = build_full(fn, in_p, out_p)
        _assert_forms_agree(full, "full")
        for pieces in (1, 2, 8, 32, 100):
            _assert_forms_agree(reduce(full, pieces), pieces)

    def test_random_tables(self):
        rng = np.random.default_rng(20)
        seen = Counter()
        for i in range(240):
            t = _random_table(rng)
            _assert_forms_agree(t, i)
            half = 2 ** (pwl.TABLE_FRACTION_BITS - 1)
            ends = _piece_ends_unclipped(t)
            inside = (ends >= 0) & (ends <= t.out_params.qmax)
            seen["tie"] += bool((np.abs(t.fx_intercepts) % (2 * half) == half).any())
            seen["flat"] += bool((t.fx_slopes == 0).any())
            seen["falling"] += bool((t.fx_slopes < 0).any())
            seen["single-code"] += bool((np.diff(t.q_knots)[:-1] == 1).any())
            seen["short"] += bool(t.q_knots[0] > 0 or t.q_knots[-1] < t.in_params.qmax)
            seen["saturates partway"] += bool((inside[:, 0] != inside[:, 1]).any())
        # every case the generator aims at occurs in many tables
        for case in ("tie", "flat", "falling", "single-code", "short", "saturates partway"):
            assert seen[case] >= 20, (case, seen)

    @pytest.mark.parametrize("bits", (8, 16))
    @pytest.mark.parametrize("sign", (1, -1))
    def test_slopes_at_the_constant_bound(self, bits, sign):
        # |s| * 2^bits + |b| is exactly 2^62, the largest the table takes;
        # the piece starts 2^30 output codes off the grid and jumps across
        # it at about a third of the input codes, so the one threshold
        # divides an accumulator gap of about 2^60
        in_p, out_p = QuantParams(bits, 1.0, 0), QuantParams(8, 1.0, 128)
        for q in ([0, in_p.qmax], [3, in_p.qmax - 2]):
            q = np.array(q)
            v0 = -sign * 2.0**30
            values = [v0, v0 + sign * 3.0 * 2.0 ** (30 - bits) * (q[1] - q[0])]
            t = pwl.PwlTable(q, np.array(values), in_p, out_p)
            s, b = int(t.fx_slopes[0]), int(t.fx_intercepts[0])
            assert abs(s) * (in_p.qmax + 1) + abs(b) == 2**62
            assert s * sign > 0
            _assert_forms_agree(t, (bits, sign, q.tolist()))
            want = [_formula(t, c) for c in range(in_p.qmax + 1)]
            assert t.lut.tolist() == want
            ends = [0, out_p.qmax][::sign]
            assert [want[0], want[-1]] == ends
            assert abs(want.index(ends[1]) - (in_p.qmax + 1) / 3) < 8

    def test_form_follows_runs_against_codes(self, monkeypatch):
        # a table with about as many runs as codes is evaluated code by code
        calls = _counted_forms(monkeypatch)
        cases = {
            (8, 32): "_expand",
            (8, 1): "_expand",
            (16, 32): "_runs",
            (16, 100): "_runs",
            (16, None): "_expand",
        }
        for (bits, pieces), form in cases.items():
            fn, in_p, out_p = _params_for("sigmoid", bits)
            t = build_full(fn, in_p, out_p)
            if pieces is not None:
                t = reduce(t, pieces)
            calls.clear()
            pwl.PwlTable(t.q_knots, t.values, in_p, out_p)
            assert calls == [form], (bits, pieces)

    def test_too_many_runs_for_the_codes(self, monkeypatch):
        # a 16-bit tanh onto a 16-bit output grid keeps about one run per
        # code at 32 pieces, so a table that passes the piece count still
        # evaluates every code; the run form gives the same LUT
        fn, in_p, _ = _params_for("tanh", 16)
        out_p = derive_params(-1.0, 1.0, 16)
        t = reduce(build_full(fn, in_p, out_p), 32)
        first, runs = pwl._piece_runs(t)
        codes = in_p.qmax + 1
        assert pwl._RUN_SETUP + pwl._RUN_COST * t.pieces < codes
        assert pwl._RUN_SETUP + pwl._RUN_COST * int(runs.sum()) >= codes
        calls = _counted_forms(monkeypatch)
        twin = pwl.PwlTable(t.q_knots, t.values, in_p, out_p)
        assert calls == ["_expand"]
        np.testing.assert_array_equal(twin.lut, t.lut)
        np.testing.assert_array_equal(t.lut, pwl._runs(t, first, runs))

    def test_reduced_sixteen_bit_table_peak_memory(self):
        # evaluating every code in int64 blocks peaked at about 666 KiB here;
        # the LUT itself is 64 KiB
        fn, in_p, out_p = _params_for("sigmoid", 16)
        t = reduce(build_full(fn, in_p, out_p), 32)
        tracemalloc.start()
        try:
            pwl.PwlTable(t.q_knots, t.values, in_p, out_p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10
