"""Additive attention: float reference, integer path, denominator diagnostics."""

import numpy as np
import pytest
from bigint_ref import two_term

from irnn.attention import (
    EXP_DOMAIN,
    EXP_GRID,
    AttentionPlan,
    AttentionWeights,
    _degrade_denominator,
    attention_int,
    attention_intermediates,
    attention_ref,
    calibrate_attention,
    integer_softmax_weights,
    project_keys,
)
from irnn.fixedpoint import REQUANT_FRACTION_BITS, FxOverflow, Rescale, to_fixed
from irnn.pwl import TANH_GRID, PwlTable, activation_registry, build_full, reduce
from irnn.quant import (
    QTensor,
    QuantParams,
    dequantize,
    derive_params,
    max_centered,
    qadd_diff,
    quantize_tensor,
)


def _toy(seed, T=8, m_enc=16, m_dec=16, m_att=12, n_cal=200, pieces=32):
    """Calibrated toy attention; calibration covers concentrated cases."""
    rng = np.random.default_rng(seed)
    wq = rng.normal(0.0, 0.4, size=(m_att, m_dec))
    wk = rng.normal(0.0, 0.4, size=(m_att, m_enc))
    v = rng.normal(0.0, 0.4, size=m_att)
    hdec_s = rng.normal(0.0, 0.6, size=(n_cal, m_dec))
    henc_s = rng.normal(0.0, 0.6, size=(n_cal, T, m_enc))
    for i in range(0, n_cal, 8):
        henc_s[i] = np.tile(henc_s[i, 0], (T, 1))
    w, expt, tanht = calibrate_attention(wq, wk, v, hdec_s, henc_s, pieces=pieces)
    return rng, (wq, wk, v), w, expt, tanht


class TestFloatRef:
    def test_uniform_weights_when_keys_ignored(self):
        # wk = 0 makes every alignment equal, so alpha is uniform
        rng = np.random.default_rng(42)
        T, m = 6, 4
        H = rng.normal(size=(T, m))
        s, alpha = attention_ref(
            rng.normal(size=m), H, rng.normal(size=(3, m)), np.zeros((3, m)),
            rng.normal(size=3),
        )
        np.testing.assert_allclose(alpha, np.full(T, 1.0 / T))
        np.testing.assert_allclose(s, H.mean(axis=0))

    def test_single_encoder_state(self):
        rng = np.random.default_rng(42)
        H = rng.normal(size=(1, 5))
        s, alpha = attention_ref(
            rng.normal(size=5), H, rng.normal(size=(3, 5)),
            rng.normal(size=(3, 5)), rng.normal(size=3),
        )
        np.testing.assert_allclose(alpha, [1.0])
        np.testing.assert_allclose(s, H[0])

    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            T, m_enc, m_dec, m_att = 5, 4, 3, 6
            wq = rng.normal(size=(m_att, m_dec))
            wk = rng.normal(size=(m_att, m_enc))
            v = rng.normal(size=m_att)
            h = rng.normal(size=m_dec)
            H = rng.normal(size=(T, m_enc))
            e = np.array([v @ np.tanh(wq @ h + wk @ H[i]) for i in range(T)])
            ex = np.exp(e)
            alpha_ref = ex / ex.sum()
            s_ref = sum(alpha_ref[i] * H[i] for i in range(T))
            s, alpha = attention_ref(h, H, wq, wk, v)
            np.testing.assert_allclose(alpha, alpha_ref, atol=1e-12)
            np.testing.assert_allclose(s, s_ref, atol=1e-12)

    def test_empty_encoder_rejected(self):
        with pytest.raises(ValueError, match="T >= 1"):
            attention_ref(np.zeros(3), np.zeros((0, 4)), np.zeros((2, 3)),
                          np.zeros((2, 4)), np.zeros(2))


class TestTypes:
    def test_sites_read_only(self):
        _, _, w, _, _ = _toy(42, n_cal=8)
        with pytest.raises(TypeError):
            w.sites["s"] = w.sites["e"]

    def test_weights_must_be_8bit(self):
        rng = np.random.default_rng(42)
        p8, p16 = derive_params(-2, 2, 8), derive_params(-2, 2, 16)
        wq = quantize_tensor(rng.normal(size=(3, 4)), p16)
        wk = quantize_tensor(rng.normal(size=(3, 5)), p8)
        v = quantize_tensor(rng.normal(size=3), p8)
        with pytest.raises(ValueError, match="8-bit"):
            AttentionWeights(wq, wk, v, {})

    def test_projection_rows_must_match(self):
        rng = np.random.default_rng(42)
        p = derive_params(-2, 2, 8)
        wq = quantize_tensor(rng.normal(size=(3, 4)), p)
        wk = quantize_tensor(rng.normal(size=(3, 5)), p)
        v = quantize_tensor(rng.normal(size=7), p)
        with pytest.raises(ValueError, match="rows"):
            AttentionWeights(wq, wk, v, {})


class TestIntAttention:
    def test_toy_regression(self):
        rng, (wq, wk, v), w, expt, tanht = _toy(42)
        errs = []
        for _ in range(20):
            hd = rng.normal(0.0, 0.6, size=16)
            He = rng.normal(0.0, 0.6, size=(8, 16))
            s_ref, _ = attention_ref(hd, He, wq, wk, v)
            s, _ = attention_int(
                quantize_tensor(hd, w.sites["hdec"]),
                quantize_tensor(He, w.sites["henc"]),
                w, expt, tanht,
            )
            errs.append(np.abs(s.dequantize() - s_ref).max())
        assert max(errs) <= 0.05
        assert np.mean(errs) <= 0.02

    def test_identical_encoder_states(self):
        rng, _, w, expt, tanht = _toy(42)
        one = rng.normal(0.0, 0.6, size=16)
        qHe = quantize_tensor(np.tile(one, (8, 1)), w.sites["henc"])
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        s, q_exp = attention_int(qhd, qHe, w, expt, tanht)
        assert (q_exp.data == q_exp.data[0]).all()
        tol = w.sites["s"].scale / 2 + w.sites["s"].scale
        assert np.abs(s.dequantize() - qHe.dequantize()[0]).max() <= tol

    def test_single_timestep(self):
        rng, _, w, expt, tanht = _toy(42)
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(1, 16)), w.sites["henc"])
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        inter = attention_intermediates(qhd, qHe, w, expt, tanht)
        assert inter.denom == int(inter.exp_e.data[0])
        assert inter.denom >= 254
        tol = w.sites["s"].scale / 2 + w.sites["henc"].scale
        assert np.abs(inter.s.dequantize() - qHe.dequantize()[0]).max() <= tol

    def test_max_element_hits_top_code(self):
        # the shifted maximum lands on the table's right endpoint, whose
        # output is the top code give or take one eval rounding
        rng, _, w, expt, tanht = _toy(42)
        for _ in range(10):
            qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
            qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
            inter = attention_intermediates(qhd, qHe, w, expt, tanht)
            assert int(inter.exp_e.data.max()) >= 254
            assert inter.denom >= 254
            assert inter.denom == int(inter.exp_e.data.astype(np.int64).sum())

    def test_integer_shift_invariance(self):
        rng, _, w, expt, tanht = _toy(42)
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
        q_e = attention_intermediates(qhd, qHe, w, expt, tanht).e.data.astype(np.int64)
        base_w, base_d = integer_softmax_weights(q_e, w.sites["e"], expt)
        for off in (-5000, -1, 1, 1234):
            w2, d2 = integer_softmax_weights(q_e + off, w.sites["e"], expt)
            np.testing.assert_array_equal(base_w, w2)
            assert base_d == d2

    def test_real_constant_offset_moves_weights_at_most_one(self):
        rng, (wq, wk, v), w, expt, _ = _toy(42)
        hd = rng.normal(0.0, 0.6, size=16)
        He = rng.normal(0.0, 0.6, size=(8, 16))
        e = np.tanh((wq @ hd)[None, :] + He @ wk.T) @ v
        p_e = w.sites["e"]
        q0, _ = integer_softmax_weights(quantize_tensor(e, p_e).data, p_e, expt)
        # shift keeps the range width (hence the scale); it must also keep
        # zero inside the range or the grid cannot be derived at all
        for c in (0.37, -1.9, 1.1):
            lo, hi = dequantize(0, p_e) + c, dequantize(p_e.qmax, p_e) + c
            p_shift = derive_params(lo, hi, 16)
            q1, _ = integer_softmax_weights(
                quantize_tensor(e + c, p_shift).data, p_shift, expt
            )
            assert np.abs(q0.astype(int) - q1.astype(int)).max() <= 1

    def test_degraded_denominator_strictly_worse(self):
        # one seed here; the acceptance suite sweeps ten
        rng, (wq, wk, v), w, expt, tanht = _toy(42)
        e32, e8 = [], []
        for _ in range(50):
            hd = rng.normal(0.0, 0.6, size=16)
            He = rng.normal(0.0, 0.6, size=(8, 16))
            _, a_ref = attention_ref(hd, He, wq, wk, v)
            inter = attention_intermediates(
                quantize_tensor(hd, w.sites["hdec"]),
                quantize_tensor(He, w.sites["henc"]),
                w, expt, tanht,
            )
            d8 = _degrade_denominator(inter.denom, 8, 8, 8)
            e32.append(np.abs(inter.exp_e.data / inter.denom - a_ref).sum())
            e8.append(np.abs(inter.exp_e.data / d8 - a_ref).sum())
        assert np.mean(e8) > np.mean(e32)

    def test_project_keys_equals_recorded_keys(self):
        # wide encoder states push the keys past the kproj grid at both ends
        rng, _, w, expt, tanht = _toy(42)
        plan, p_k, hit = AttentionPlan(w, {"exp": expt, "tanh": tanht}), w.sites["kproj"], set()
        for _ in range(10):
            qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
            qHe = quantize_tensor(rng.normal(0.0, 3.0, size=(8, 16)), w.sites["henc"])
            keys = project_keys(qHe, w)
            want = plan.intermediates(qhd, qHe).keys_proj
            assert keys.params == want.params and keys.data.dtype == want.data.dtype
            np.testing.assert_array_equal(keys.data, want.data)
            hit |= set(np.intersect1d(keys.data, [p_k.qmin, p_k.qmax]).tolist())
        assert hit == {p_k.qmin, p_k.qmax}

    def test_foreign_params_rejected(self):
        rng, _, w, expt, tanht = _toy(42)
        bad = quantize_tensor(rng.normal(size=16), derive_params(-9, 9, 8))
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
        with pytest.raises(ValueError, match="uncalibrated-tensor"):
            attention_int(bad, qHe, w, expt, tanht)


class TestLeanStep:
    """AttentionPlan.context, the decoder's step, against intermediates()."""

    def test_context_equals_intermediates(self):
        rng, _, w, expt, tanht = _toy(42)
        plan = AttentionPlan(w, {"exp": expt, "tanh": tanht})
        for T, sigma in ((1, 0.6), (8, 0.6), (8, 3.0), (13, 1.5)):
            qHe = quantize_tensor(rng.normal(0.0, sigma, size=(T, 16)), w.sites["henc"])
            src = plan.source(qHe)
            for _ in range(10):
                qhd = quantize_tensor(rng.normal(0.0, sigma, size=16), w.sites["hdec"])
                want = plan.intermediates(qhd, qHe).s
                got = plan.context(qhd.data, src)
                assert got.dtype == want.data.dtype
                np.testing.assert_array_equal(got, want.data)

    def test_step_on_the_decoders_query_codes(self):
        # a decoder cell on the plan's hdec grid carries the query rows
        # under its h projection; the step kernel on the query codes that
        # projection hands it equals context() and intermediates()
        from irnn.rnn import CellConfig, calibrate_lstm_cell

        rng, _, w, expt, tanht = _toy(42)
        T, n, m = 8, 6, 16
        cell = calibrate_lstm_cell(
            rng.normal(0.0, 0.3, size=(4 * m, n)), rng.normal(0.0, 0.3, size=(4 * m, m)), None,
            rng.normal(0.0, 1.0, size=(4, T, n)), CellConfig(),
            ws=rng.normal(0.0, 0.3, size=(4 * m, 16)), s_seqs=rng.normal(0.0, 0.5, size=(4, T, 16)),
        )
        sites = {**w.sites, "hdec": cell.sites["h"]}
        tables = {"exp": expt, "tanh": tanht}
        plan = AttentionPlan(AttentionWeights(w.wq, w.wk, w.v, sites), tables)
        carrier = cell.with_query(plan._gemv_q, plan._qproj)
        qHe = quantize_tensor(rng.normal(0.0, 1.5, size=(T, 16)), w.sites["henc"])
        src = plan.source(qHe)
        hs = [rng.integers(0, 256, size=m).astype(np.uint8) for _ in range(30)]
        for h in [*hs, np.zeros(m, np.uint8), np.full(m, 255, np.uint8)]:
            q = carrier._hprod(carrier._gemv_h(h))[4 * m:]
            np.testing.assert_array_equal(q, plan._qproj(plan._gemv_q(h)))
            got = plan._step(q, src)
            np.testing.assert_array_equal(got, plan.context(h, src))
            want = plan.intermediates(QTensor(h, cell.sites["h"]), qHe).s
            assert got.dtype == want.data.dtype
            np.testing.assert_array_equal(got, want.data)

    def test_sum_qk_holds_saturated_codes(self):
        # wide inputs push the sums past the sumqk grid at both ends
        rng, _, w, expt, tanht = _toy(42)
        plan = AttentionPlan(w, {"exp": expt, "tanh": tanht})
        p_q, p_k, p_sum = (w.sites[k] for k in ("qproj", "kproj", "sumqk"))
        hit = set()
        for _ in range(10):
            qhd = quantize_tensor(rng.normal(0.0, 3.0, size=16), w.sites["hdec"])
            qHe = quantize_tensor(rng.normal(0.0, 3.0, size=(8, 16)), w.sites["henc"])
            inter = plan.intermediates(qhd, qHe)
            want = qadd_diff(
                inter.query_proj.data[:, None], p_q, inter.keys_proj.data, p_k, p_sum
            )
            np.testing.assert_array_equal(inter.sum_qk.data, want)
            hit |= set(np.intersect1d(want, [p_sum.qmin, p_sum.qmax]).tolist())
        assert hit == {p_sum.qmin, p_sum.qmax}

    def test_exp_gather_clips_below_the_domain(self):
        # alignments spread past the exp table's [-10, 0] domain: shifted
        # codes below it clip to the table's first code, as the saturating
        # integer_softmax_weights does
        rng = np.random.default_rng(5)
        T, m = 8, 16
        wq, wk = rng.normal(0.0, 0.4, size=(2, m, m))
        v = rng.normal(0.0, 3.0, size=m)
        hdec_s = rng.normal(0.0, 0.6, size=(50, m))
        w, expt, tanht = calibrate_attention(
            wq, wk, v, hdec_s, rng.normal(0.0, 0.6, size=(50, T, m))
        )
        plan, p_e = AttentionPlan(w, {"exp": expt, "tanh": tanht}), w.sites["e"]
        below = 0
        for hd in hdec_s[:20]:
            qhd = quantize_tensor(hd, w.sites["hdec"])
            qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(T, m)), w.sites["henc"])
            inter = plan.intermediates(qhd, qHe)
            q_exp, denom = integer_softmax_weights(inter.e.data, p_e, expt)
            np.testing.assert_array_equal(inter.exp_e.data, q_exp)
            assert inter.denom == denom
            spread = (int(inter.e.data.max()) - inter.e.data.astype(np.int64)) * p_e.scale
            below += int((spread > -EXP_DOMAIN[0] + 0.1).sum())
        assert below > 0

    def test_context_overflow_rejected_by_source(self):
        # a context grid 4096x finer than the encoder's makes the context
        # multiplier about 2^42, so T * 2^16 codes overflow int64 past T = 41
        rng, _, w, expt, tanht = _toy(42, n_cal=16)
        p_h, p_s = w.sites["henc"], w.sites["s"]
        fine = QuantParams(8, p_h.scale / 4096 * 1.3, p_s.zero_point)
        plan = AttentionPlan(
            AttentionWeights(w.wq, w.wk, w.v, {**w.sites, "s": fine}),
            {"exp": expt, "tanh": tanht},
        )
        bits = expt.out_params.bitwidth + p_h.bitwidth
        half_den = expt.out_params.qmax << (REQUANT_FRACTION_BITS - 1)
        longest = (2**63 - 1) // ((plan._ctx.raw << bits) + half_den)
        assert 1 <= longest < 64
        ok = quantize_tensor(rng.normal(0.0, 0.6, size=(longest, 16)), p_h)
        plan.source(ok)
        over = quantize_tensor(rng.normal(0.0, 0.6, size=(longest + 1, 16)), p_h)
        with pytest.raises(FxOverflow, match="context accumulator"):
            plan.source(over)

    def test_rounding_add_inside_the_context_proof(self):
        # henc scale / s scale = 1/8 makes the context multiplier 2^27; at
        # code 255 the scaled weighted sum plus the context Quotient's half
        # denominator, T * 255 * 2^29, fits int64 up to T = 1,032,506
        rng, _, w, expt, tanht = _toy(42, m_enc=1, m_att=1, n_cal=16)
        p_h = QuantParams(8, 0.01, 0)
        sites = {**w.sites, "henc": p_h, "s": QuantParams(8, 0.08, 128)}
        tables = {"exp": expt, "tanh": tanht}
        plan = AttentionPlan(AttentionWeights(w.wq, w.wk, w.v, sites), tables)
        assert plan._ctx.raw == 2**27
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        longest = 1_032_506
        src = plan.source(QTensor(np.full((longest, 1), 255, dtype=np.uint8), p_h))
        # every state is 2.55, and 2.55 / 0.08 = 31.875 rounds to 32 above Z_s
        np.testing.assert_array_equal(plan.context(qhd.data, src), [160])
        with pytest.raises(FxOverflow, match="context accumulator"):
            plan.source(QTensor(np.full((longest + 1, 1), 255, dtype=np.uint8), p_h))

    def test_tables_on_other_grids_rejected(self):
        # exp reads the fixed EXP_GRID and tanh the sumqk site; a swapped
        # pair, or a tanh table left behind by a new sumqk grid, is refused
        _, _, w, expt, tanht = _toy(42, n_cal=16)
        p = w.sites["sumqk"]
        wide = derive_params(dequantize(0, p) * 2, dequantize(p.qmax, p) * 2, 16)
        moved = AttentionWeights(w.wq, w.wk, w.v, {**w.sites, "sumqk": wide})
        for weights, exp_table, tanh_table in ((w, tanht, expt), (moved, expt, tanht)):
            with pytest.raises(ValueError, match="table-grid-mismatch"):
                AttentionPlan(weights, {"exp": exp_table, "tanh": tanh_table})
        assert expt.in_params == EXP_GRID

    def test_extra_or_missing_table_rejected(self):
        # a plan holds exactly its exp and tanh tables, read-only
        _, _, w, expt, tanht = _toy(42, n_cal=16)
        for tables, name in (({"exp": expt, "tanh": tanht, "gelu": tanht}, "gelu"),
                             ({"exp": expt}, "tanh"), ({"tanh": tanht}, "exp")):
            with pytest.raises(ValueError, match=f"table-grid-mismatch: the '{name}' table"):
                AttentionPlan(w, tables)
        plan = AttentionPlan(w, {"tanh": tanht, "exp": expt})
        assert list(plan.tables) == ["exp", "tanh"]
        with pytest.raises(TypeError):
            plan.tables["exp"] = tanht

    def test_weights_are_read_only_copies(self):
        _, _, w, _, _ = _toy(42, n_cal=16)
        given = [np.array(t.data) for t in (w.wq, w.wk, w.v)]
        mine = AttentionWeights(*(QTensor(a, t.params) for a, t in zip(given, (w.wq, w.wk, w.v))),
                                w.sites)
        for t, a in zip((mine.wq, mine.wk, mine.v), given):
            with pytest.raises(ValueError, match="read-only"):
                t.data[...] = 0
            a[...] = 0
            assert t.data.any()

    def test_exp_table_zero_at_the_maximum_rejected(self):
        # every softmax sum holds the exp code of the shifted maximum, so a
        # table that maps shifted code 0 to 0 is refused where the plan is
        # built and before integer_softmax_weights sums anything, even
        # though its other codes are positive
        rng, _, w, expt, tanht = _toy(42, n_cal=16)
        values = expt.values.copy()
        values[-1] = 0.0
        low = PwlTable(expt.q_knots, values, expt.in_params, expt.out_params)
        assert low.lut[-1] == 0 and low.lut.max() > 0
        with pytest.raises(ValueError, match="softmax-denominator"):
            AttentionPlan(w, {"exp": low, "tanh": tanht})
        with pytest.raises(ValueError, match="softmax-denominator"):
            integer_softmax_weights(rng.integers(-300, 300, size=8), w.sites["e"], low)

    def test_source_checks_encoder_params(self):
        rng, _, w, expt, tanht = _toy(42, n_cal=16)
        plan = AttentionPlan(w, {"exp": expt, "tanh": tanht})
        bad = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), derive_params(-9, 9, 8))
        for project in (plan.source, lambda q: project_keys(q, w)):
            with pytest.raises(ValueError, match="uncalibrated-tensor"):
                project(bad)

    @pytest.mark.parametrize("T,dtype", [(255, np.float32), (256, np.float64)])
    def test_context_operand_float32_below_two_to_the_24(self, T, dtype):
        # T * 2^(8 + 8) partial-sum bound: below 2^24 up to T = 255
        rng, _, w, expt, tanht = _toy(42, n_cal=16)
        plan = AttentionPlan(w, {"exp": expt, "tanh": tanht})
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(T, 16)), w.sites["henc"])
        src = plan.source(qHe)
        assert src.henc.dtype == dtype
        for sigma in (0.3, 3.0):
            qhd = quantize_tensor(rng.normal(0.0, sigma, size=16), w.sites["hdec"])
            want = plan.intermediates(qhd, qHe).s
            np.testing.assert_array_equal(plan.context(qhd.data, src), want.data)


class TestScoreTable:
    """The plan's one uint8 table over every (kproj code, qproj code) pair."""

    @staticmethod
    def _narrow(w):
        # a sumqk grid a quarter as wide, with a tanh table on it, so most
        # pairs saturate it at one end or the other
        p = w.sites["sumqk"]
        narrow = QuantParams(16, p.scale / 4, p.zero_point)
        tanht = reduce(build_full(activation_registry("tanh")[0], narrow, TANH_GRID), 32)
        return AttentionWeights(w.wq, w.wk, w.v, {**w.sites, "sumqk": narrow}), tanht

    def test_equals_big_int_composition(self):
        _, _, w, expt, tanht = _toy(42, n_cal=16)
        for weights, tanh_table in ((w, tanht), self._narrow(w)):
            plan = AttentionPlan(weights, {"exp": expt, "tanh": tanh_table})
            p_q, p_k, p_sum = (weights.sites[k] for k in ("qproj", "kproj", "sumqk"))
            # row r holds query code (r + Z_q) mod 256, column k key code k
            sums = [
                two_term(q - p_q.zero_point, p_q.scale, k - p_k.zero_point, p_k.scale, p_sum)
                for q in [(r + p_q.zero_point) % 256 for r in range(256)] for k in range(256)
            ]
            assert {p_sum.qmin, p_sum.qmax} <= set(sums)
            assert plan._score.dtype == np.uint8 and plan._score.shape == (256, 256)
            np.testing.assert_array_equal(plan._score.ravel(), tanh_table.lut[sums])

    def test_read_only(self):
        _, _, w, expt, tanht = _toy(42, n_cal=16)
        score = AttentionPlan(w, {"exp": expt, "tanh": tanht})._score
        assert not score.flags.writeable
        with pytest.raises(ValueError):
            score[0] = 1

    @pytest.mark.parametrize("site", ["qproj", "kproj"])
    def test_projection_grids_must_be_8_bit(self, site):
        # freeze_attention writes both at 8 bits; a plan given a 16-bit one
        # is refused before its score table is built
        _, _, w, expt, tanht = _toy(42, n_cal=16)
        assert w.sites[site].bitwidth == 8
        p = w.sites[site]
        sites = {**w.sites, site: QuantParams(16, p.scale, p.zero_point)}
        with pytest.raises(ValueError, match="score-table"):
            AttentionPlan(AttentionWeights(w.wq, w.wk, w.v, sites), {"exp": expt, "tanh": tanht})


class TestAttachContext:
    """Gate pre-activations plus a context projection Ws @ s, as one
    two-term rescale of the centered gates and the centered product, built
    from to_fixed directly, so the sum rounds once; the output grid
    defaults to the gates'."""

    def _fixtures(self):
        rng = np.random.default_rng(42)
        gates = quantize_tensor(rng.normal(0.0, 1.0, size=64), derive_params(-4, 4, 16))
        ws = quantize_tensor(rng.normal(0.0, 0.3, size=(64, 16)), derive_params(-1.2, 1.2, 8))
        return rng, gates, ws

    @staticmethod
    def _attach(gates, ws, s, p_out=None):
        p_g = gates.params
        p_out = p_g if p_out is None else p_out
        w = ws.centered()
        bound = int(np.abs(w).sum(axis=1).max()) * max_centered(s.params)
        f = REQUANT_FRACTION_BITS
        raws = (
            to_fixed(p_g.scale / p_out.scale, f),
            to_fixed(s.params.scale * ws.params.scale / p_out.scale, f),
        )
        op = Rescale(raws, f, p_out.zero_point, p_out.qmin, p_out.qmax,
                     bounds=(max_centered(p_g), bound))
        return QTensor(op(gates.centered(), w @ s.centered()).astype(p_out.dtype), p_out)

    def test_zero_context_within_one_code(self):
        rng, gates, ws = self._fixtures()
        s = quantize_tensor(np.zeros(16), derive_params(-1, 1, 8))
        out = self._attach(gates, ws, s)
        assert out.params == gates.params
        assert np.abs(out.data.astype(int) - gates.data.astype(int)).max() <= 1

    def test_zero_projection_exact_passthrough(self):
        rng, gates, _ = self._fixtures()
        ws0 = quantize_tensor(np.zeros((64, 16)), derive_params(-1, 1, 8))
        s = quantize_tensor(rng.normal(0.0, 0.5, size=16), derive_params(-1.5, 1.5, 8))
        out = self._attach(gates, ws0, s)
        np.testing.assert_array_equal(out.data, gates.data)

    def test_matches_dequantized_oracle(self):
        rng, gates, ws = self._fixtures()
        s = quantize_tensor(rng.normal(0.0, 0.5, size=16), derive_params(-1.5, 1.5, 8))
        p_out = derive_params(-6.0, 6.0, 16)
        out = self._attach(gates, ws, s, p_out)
        ref = gates.dequantize() + ws.dequantize() @ s.dequantize()
        assert np.abs(out.dequantize() - ref).max() <= p_out.scale
