"""Accuracy reports, SND, agreement ratios, open-set scores, decision grids."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfdalab import metrics, numerics
from sfdalab.bank import MemoryBank
from sfdalab.errors import ConfigError, InsufficientDataError, ShapeError
from sfdalab.metrics import (
    EvalReport,
    agreement_ratios,
    build_report,
    classification_report,
    decision_grid,
    evaluate_model,
    open_set_scores,
    save_grid_csv,
    snd_score,
    write_report_json,
)
from sfdalab.model import init_model, predict_labels


class TestClassificationReport:
    def test_perfect_and_mixed(self):
        rep = classification_report([0, 1, 1, 0], [0, 1, 1, 0], 2)
        assert rep.accuracy == 1.0 and rep.mean_per_class == 1.0
        rep = classification_report([0, 1, 0, 0], [0, 1, 1, 0], 2)
        assert rep.accuracy == pytest.approx(0.75)
        assert rep.per_class_accuracy[0] == 1.0
        assert rep.per_class_accuracy[1] == pytest.approx(0.5)

    def test_unknown_truth_skipped(self):
        rep = classification_report([0, 1, 1], [0, -1, 1], 2)
        assert rep.n_samples == 2 and rep.accuracy == 1.0

    def test_absent_class_left_out(self):
        rep = classification_report([0, 0], [0, 0], 3)
        assert set(rep.per_class_accuracy) == {0}
        assert rep.mean_per_class == 1.0

    def test_all_unlabeled_raises(self):
        with pytest.raises(InsufficientDataError):
            classification_report([0, 1], [-1, -1], 2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            classification_report([0, 1], [0], 2)

    def test_to_dict_keys(self):
        d = classification_report([0, 1], [0, 1], 2).to_dict()
        assert set(d) == {"accuracy", "per_class", "mean_per_class", "n_samples"}
        assert set(d["per_class"]) == {"0", "1"}

    def test_work_does_not_grow_with_num_classes(self):
        # one loop step per class present: 10**12 classes would take weeks
        pred, truth = [0, 1, 0, 0, 1, 1], [0, 1, 1, 0, -1, 1]
        rep = classification_report(pred, truth, 10**12)
        assert rep == classification_report(pred, truth, 2)
        assert all(type(c) is int for c in rep.per_class_accuracy)

    def test_truth_at_or_above_num_classes_left_out_of_the_table(self):
        rep = classification_report([0, 1, 5], [0, 1, 5], 2)
        assert set(rep.per_class_accuracy) == {0, 1} and rep.accuracy == 1.0
        rep = classification_report([0, 10**12], [0, 10**12], 10**12 + 1)
        assert rep.per_class_accuracy == {0: 1.0, 10**12: 1.0}


class TestSndScore:
    def test_identical_rows_hit_log_n_minus_one(self):
        P = np.tile(np.array([0.6, 0.4]), (5, 1))
        assert snd_score(P) == pytest.approx(np.log(4.0), rel=1e-9)

    def test_two_rows_give_zero(self):
        # each neighborhood holds a single other row: entropy 0
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert snd_score(P) == pytest.approx(0.0, abs=1e-12)

    def test_sharp_temperature_picks_nearest(self):
        # two tight clusters; the smallest tau concentrates mass on the
        # same-cluster rows, entropy toward ln(cluster size - 1), here
        # ln(2) with six rows in two triples
        P = np.array([[0.99, 0.01], [0.98, 0.02], [0.97, 0.03],
                      [0.01, 0.99], [0.02, 0.98], [0.03, 0.97]])
        low = snd_score(P, tau=2.0 / metrics.ONE_SHIFT_MAX_EXPONENT)
        high = snd_score(P, tau=50.0)
        assert low < high
        assert high == pytest.approx(np.log(5.0), rel=1e-3)

    def test_upper_bound_is_uniform_entropy(self):
        rng = np.random.default_rng(0)
        P = rng.dirichlet(np.ones(3), size=20)
        assert snd_score(P) <= np.log(19.0) + 1e-12

    def test_never_below_zero(self):
        # each row's nearest row is its exact copy, so at tau = 5e-3 every
        # entropy is all but 0, and the cancellation in
        # log z - (u.(WU) - z) / (tau z) rounds some of them below 0
        P = np.repeat(np.random.default_rng(0).dirichlet(np.full(5, 0.2), size=3), 2, axis=0)
        assert snd_score(P, 5e-3) >= 0.0

    def test_input_validation(self):
        with pytest.raises(InsufficientDataError):
            snd_score(np.array([[1.0, 0.0]]))
        with pytest.raises(ConfigError):
            snd_score(np.full((3, 2), 0.5), tau=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, "0.05",
                                     pytest.param(10**400, id="10**400")])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            snd_score(np.full((3, 2), 0.5), tau=tau)

    @pytest.mark.parametrize("side", [1 + 1e-9, 1 - 1e-9])
    @pytest.mark.parametrize("rows", ["one_hot", "antipodal"])
    def test_both_shifts_at_the_threshold(self, side, rows):
        # tau shifted to either side of the smallest one, 2 / 700: a row
        # whose nearest other row is orthogonal (s = 0) or opposite
        # (s = -1) has every weight at exp(-1 / tau) or exp(-2 / tau). Just
        # above, z and tau z are normal floats; below, tau is refused
        tau = side * 2.0 / metrics.ONE_SHIFT_MAX_EXPONENT
        if rows == "one_hot":
            P = np.eye(3)[[0, 1, 1, 2, 2, 2]]
        else:
            P = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        if side < 1:
            with pytest.raises(ConfigError, match=r"^tau must be >= 2 / 700 = 0\.00285714, "):
                snd_score(P, tau)
            return
        got = snd_score(P, tau)
        eps = np.finfo(np.float64).eps
        assert np.isfinite(got)
        assert got == pytest.approx(self.long_double_snd(P, tau), rel=1e-12,
                                    abs=2 * (P.shape[0] + P.shape[1]) * eps / tau)

    @staticmethod
    def snd_per_block_size(P):
        """snd_score under query blocks of 1 (raised to 2), 7 and n rows;
        one block of n rows is the n x n arithmetic."""
        out = []
        for block in (1, 7, P.shape[0]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numerics, "_BLOCK_ROWS", block)
                out.append(snd_score(P))
        return out

    @given(st.integers(2, 300), st.integers(2, 6), st.integers(1, 400), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_blocks_agree_on_any_simplex_rows(self, n, c, distinct, exact, seed):
        # rows drawn from a pool of `distinct` simplex points, so small
        # pools give exact ties and duplicate rows; or, when `exact`, rows
        # with one or four equal entries, whose normalized rows hold 0, 0.5
        # or 1 and whose products are exact in any summation order. A
        # row's sums add up block by block, its mirror terms from the
        # blocks above it, so the scores agree to rounding, not to the bit;
        # a lost or doubled term would move them far more.
        rng = np.random.default_rng(seed)
        if exact:
            P = np.zeros((n, c))
            for row in P:
                hot = rng.choice(c, size=rng.choice([1, 4] if c >= 4 else [1]), replace=False)
                row[hot] = 1.0 / hot.size
        else:
            pool = rng.dirichlet(np.full(c, 0.3), size=distinct)
            P = pool[rng.integers(0, distinct, size=n)]
        scores = self.snd_per_block_size(P)
        assert scores[0] == pytest.approx(scores[2], rel=1e-13)
        assert scores[1] == pytest.approx(scores[2], rel=1e-13)

    @staticmethod
    def long_double_snd(P, tau):
        """SND from the whole n x n similarity matrix in extended precision,
        as the mean of -sum p log p over log-softmax rows."""
        U = P.astype(np.longdouble)
        U /= np.sqrt((U * U).sum(axis=1, keepdims=True))
        S = U @ U.T / np.longdouble(tau)
        np.fill_diagonal(S, -np.inf)
        S -= S.max(axis=1, keepdims=True)
        logp = S - np.log(np.exp(S).sum(axis=1, keepdims=True))
        p = np.exp(logp)
        return float(-np.where(p > 0, p * np.where(p > 0, logp, 0.0), 0.0).sum(axis=1).mean())

    @given(st.integers(2, 300), st.integers(2, 6),
           st.floats(2.0 / metrics.ONE_SHIFT_MAX_EXPONENT, 50.0),
           st.integers(1, 400), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(n=2, c=2, tau=49.0, distinct=2, near_one_hot=False, seed=2)
    @example(n=12, c=4, tau=0.05, distinct=400, near_one_hot=False, seed=1)
    @example(n=40, c=3, tau=2.0 / 700.0, distinct=5, near_one_hot=True, seed=5)
    @example(n=128, c=3, tau=0.05, distinct=400, near_one_hot=False, seed=0)
    @example(n=129, c=2, tau=0.05, distinct=40, near_one_hot=True, seed=1)
    @example(n=130, c=4, tau=0.05, distinct=400, near_one_hot=False, seed=2)
    @example(n=256, c=2, tau=0.05, distinct=400, near_one_hot=False, seed=3)
    @example(n=257, c=6, tau=0.05, distinct=7, near_one_hot=True, seed=4)
    def test_matches_a_long_double_oracle(self, n, c, tau, distinct, near_one_hot, seed):
        # rows drawn from a pool, so small pools give duplicate rows; a
        # near-one-hot pool puts nearly all of each row's mass on one class.
        # Each row's entropy is log z - (u.(WU) - z) / (tau z): the
        # difference cancels, so the rounding of its n-term sums and c-term
        # dot products, each of size up to 1 / tau, is met in absolute
        # terms. That is what lets an entropy of 0 be compared at all.
        rng = np.random.default_rng(seed)
        pool = rng.dirichlet(np.full(c, 0.3), size=distinct)
        if near_one_hot:
            pool *= 10.0 ** rng.uniform(-12, -2, size=(distinct, 1))
            pool[np.arange(distinct), rng.integers(0, c, size=distinct)] += 1.0
            pool /= pool.sum(axis=1, keepdims=True)
        P = pool[rng.integers(0, distinct, size=n)]
        eps = np.finfo(np.float64).eps
        assert snd_score(P, tau) == pytest.approx(self.long_double_snd(P, tau),
                                                  rel=1e-12, abs=2 * (n + c) * eps / tau)


def bank_from(feats, preds):
    n = feats.shape[0]
    bank = MemoryBank(mode="full", capacity=n, feat_dim=feats.shape[1],
                      n_classes=preds.shape[1])
    bank.update(np.arange(n), feats, preds)
    return bank


class TestAgreementRatios:
    def test_hand_enumeration(self):
        # five points on a line; feature distance groups {0,1,2,3} vs {4}
        feats = np.array([[1.0, 0.0], [1.0, 0.01], [1.0, -0.01],
                          [1.0, 0.02], [0.0, 1.0]])
        preds = np.array([[0.9, 0.1], [0.8, 0.2], [0.85, 0.15],
                          [0.7, 0.3], [0.2, 0.8]])
        bank = bank_from(feats, preds)
        same, correct = agreement_ratios(bank, labels=[0, 0, 0, 0, 1])
        # rows 0-3 all predict class 0 and pick neighbors within the tight
        # cluster; row 4 must reach across and disagrees
        assert same == pytest.approx(4 / 5)
        assert correct == pytest.approx(1.0)

    def test_correct_ratio_counts_only_qualified(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.01], [1.0, -0.01], [1.0, 0.02]])
        preds = np.array([[0.9, 0.1], [0.8, 0.2], [0.85, 0.15], [0.6, 0.4]])
        bank = bank_from(feats, preds)
        same, correct = agreement_ratios(bank, labels=[1, 1, 1, 1])
        assert same == 1.0
        assert correct == 0.0  # all agree on class 0, truth is class 1

    def test_no_labels_returns_none(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(6, 3))
        preds = rng.dirichlet(np.ones(2), size=6)
        same, correct = agreement_ratios(bank_from(feats, preds))
        assert 0.0 <= same <= 1.0 and correct is None

    def test_insufficient_bank_raises(self):
        feats = np.eye(3)
        preds = np.full((3, 2), 0.5)
        with pytest.raises(InsufficientDataError):
            agreement_ratios(bank_from(feats, preds))

    def test_unlabeled_samples_left_out_of_the_correct_ratio(self):
        # two tight clusters of four, every prediction right; rows 0 and 4
        # carry no label and count neither as correct nor as wrong
        feats = np.array([[1.0, 0.0], [1.0, 0.01], [1.0, -0.01], [1.0, 0.02],
                          [0.0, 1.0], [0.01, 1.0], [-0.01, 1.0], [0.02, 1.0]])
        preds = np.repeat([[0.9, 0.1], [0.1, 0.9]], 4, axis=0)
        labels = np.array([-1, 0, 0, 0, -1, 1, 1, 1])
        assert agreement_ratios(bank_from(feats, preds), labels) == (1.0, 1.0)
        model = init_model(2, 4, 4, 2, seed=0)
        rep = build_report(model, feats, labels, 2, bank=bank_from(feats, preds))
        assert rep["ratios"] == {"same": 1.0, "correct": 1.0}
        assert rep["accuracy"] == evaluate_model(model, feats, labels, 2).accuracy
        # no labeled sample qualifies
        assert agreement_ratios(bank_from(feats, preds), np.full(8, -1)) == (1.0, 0.0)

    @pytest.mark.parametrize("labels", [
        np.zeros((6, 1), dtype=np.int64),   # broadcast to (6, 6) before
        np.zeros(5, dtype=np.int64),        # misses sample id 5
        np.zeros((2, 3), dtype=np.int64),
        0,
    ])
    def test_labels_must_be_1d_and_cover_every_stored_id(self, labels):
        rng = np.random.default_rng(2)
        bank = bank_from(rng.normal(size=(6, 3)), rng.dirichlet(np.ones(2), size=6))
        with pytest.raises(ShapeError, match="sample id 5"):
            agreement_ratios(bank, labels)


class TestEpochEvaluationMemory:
    """At n = 3000 one n x n float64 array is 68.7 MiB; evaluation works
    in blocks of rows and must stay far below that."""

    N = 3000

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_snd_peak_below_16_mib(self):
        P = np.random.default_rng(0).dirichlet(np.ones(2), size=self.N)
        assert self.traced_peak(lambda: snd_score(P)) < 16 * 2**20

    @pytest.mark.parametrize("n", [300, 1500])
    def test_snd_exponentiates_each_pair_once(self, n, monkeypatch):
        # the strips of one call cover every row once and hold about
        # n (n + block) / 2 entries in all, none more than a block of full
        # rows; a block of full rows each would hold n^2
        shapes = []

        def recording(name, shape):
            if name == "snd.work":
                shapes.append(tuple(shape))
            return numerics.scratch(name, shape)

        monkeypatch.setattr(metrics, "scratch", recording)
        snd_score(np.random.default_rng(n).dirichlet(np.ones(3), size=n), 0.05)
        block = numerics._BLOCK_ROWS
        sizes = [math.prod(shape) for shape in shapes]
        assert sum(rows for rows, _ in shapes) == n
        assert max(sizes) <= block * n
        assert sum(sizes) <= n * (n + 2 * block) / 2

    def test_agreement_ratios_peak_below_16_mib(self):
        rng = np.random.default_rng(1)
        bank = bank_from(rng.normal(size=(self.N, 15)),
                         rng.dirichlet(np.ones(2), size=self.N))
        assert self.traced_peak(lambda: agreement_ratios(bank)) < 16 * 2**20


class TestOpenSetScores:
    def test_paper_hos_values(self):
        assert open_set_scores(67.0, 28.0, 12).hos == pytest.approx(39.5, abs=0.05)
        assert open_set_scores(81.8, 26.3, 12).hos == pytest.approx(39.8, abs=0.05)

    def test_os_weighted_mean(self):
        s = open_set_scores(60.0, 30.0, 5)
        assert s.os == pytest.approx((5 * 60.0 + 30.0) / 6)

    def test_degenerate_zero(self):
        assert open_set_scores(0.0, 0.0, 3).hos == 0.0

    def test_harmonic_below_arithmetic(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(0, 100, size=2)
            s = open_set_scores(float(a), float(b), 7)
            assert s.hos <= (a + b) / 2 + 1e-9

    def test_validation(self):
        with pytest.raises(ConfigError):
            open_set_scores(-1.0, 10.0, 3)
        with pytest.raises(ConfigError):
            open_set_scores(10.0, 10.0, 0)
        with pytest.raises(ConfigError, match="num_known"):
            open_set_scores(0.5, 0.5, 1.5)
        with pytest.raises(ConfigError, match="os_star"):
            open_set_scores(np.nan, 0.5, 2)
        with pytest.raises(ConfigError, match="unk"):
            open_set_scores(0.5, np.inf, 2)


class TestDecisionGrid:
    def test_grid_layout_and_consistency(self):
        model = init_model(2, 8, 8, 2, seed=0)
        xs, ys, labels = decision_grid(model, (-1.0, 1.0), (0.0, 2.0), resolution=11)
        assert xs.shape == (11,) and ys.shape == (11,) and labels.shape == (11, 11)
        assert xs[0] == -1.0 and xs[-1] == 1.0 and ys[0] == 0.0 and ys[-1] == 2.0
        # spot-check one node against a direct forward pass
        want = predict_labels(model, np.array([[xs[3], ys[7]]]))[0]
        assert labels[7, 3] == want

    def test_zero_weights_uniform_label(self):
        model = init_model(2, 4, 4, 2, seed=0)
        for key in model.params():
            model.params()[key][:] = 0.0
        _, _, labels = decision_grid(model, resolution=5)
        assert np.all(labels == labels[0, 0])

    def test_rejects_bad_inputs(self):
        model = init_model(3, 4, 4, 2, seed=0)
        with pytest.raises(ShapeError):
            decision_grid(model)
        model2 = init_model(2, 4, 4, 2, seed=0)
        with pytest.raises(ConfigError):
            decision_grid(model2, resolution=1)
        with pytest.raises(ConfigError, match="resolution"):
            decision_grid(model2, resolution=2.5)

    def test_rejects_a_grid_it_cannot_allocate(self):
        # 10**14 nodes of two floats, 1.6e15 bytes, are more than a machine
        # has, so the allocation fails at once, without touching memory
        model = init_model(2, 4, 4, 2, seed=0)
        with pytest.raises(ConfigError, match="resolution 10000000 "):
            decision_grid(model, resolution=10**7)

    @pytest.mark.parametrize("kw", [
        {"x_range": (np.nan, 1.0)},
        {"x_range": (0, np.inf)},
        {"x_range": ("a", 1)},
        {"y_range": (0.0, -np.inf)},
        {"y_range": (1.0,)},
    ], ids=["x-nan", "x-inf", "x-str", "y-neg-inf", "y-one-bound"])
    def test_rejects_bad_ranges(self, kw):
        # unchecked, these fail deep inside: in forward, naming an X the
        # caller never passed, or in numpy's dtype promotion
        model = init_model(2, 4, 4, 2, seed=0)
        with pytest.raises(ConfigError, match=next(iter(kw))):
            decision_grid(model, resolution=3, **kw)

    def test_csv_export(self, tmp_path):
        model = init_model(2, 4, 4, 2, seed=1)
        xs, ys, labels = decision_grid(model, resolution=4)
        p = tmp_path / "grid.csv"
        save_grid_csv(p, xs, ys, labels)
        lines = p.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 1 + 16
        x0, y0, l0 = lines[1].split(",")
        assert float(x0) == xs[0] and float(y0) == ys[0]
        assert int(l0) == labels[0, 0]


class TestBuildReport:
    def setup_method(self):
        self.model = init_model(2, 8, 8, 2, seed=0)
        rng = np.random.default_rng(4)
        self.X = rng.normal(size=(30, 2))
        self.labels = rng.integers(0, 2, size=30)

    def test_fixed_key_set(self):
        rep = build_report(self.model, self.X, self.labels, 2)
        assert set(rep) == {"accuracy", "per_class", "snd", "ratios"}
        assert rep["accuracy"] is not None
        assert rep["snd"] is not None
        assert rep["ratios"] is not None

    def test_unlabeled_data_nulls_accuracy(self):
        rep = build_report(self.model, self.X, np.full(30, -1), 2)
        assert rep["accuracy"] is None and rep["per_class"] is None
        assert rep["snd"] is not None
        assert rep["ratios"]["correct"] is None

    @pytest.mark.parametrize("labels", [np.full(5, -1), np.full((30, 1), -1)],
                             ids=["short", "column"])
    def test_one_label_per_row_required(self, labels):
        # unlabeled arrays never reach classification_report's shape check
        with pytest.raises(ShapeError, match=r"labels must have shape \(30,\)"):
            build_report(self.model, self.X, labels, 2)

    def test_ratios_read_the_given_bank(self):
        # a bank of other features and predictions than the model's forward
        rng = np.random.default_rng(5)
        bank = bank_from(rng.normal(size=(30, 3)), rng.dirichlet(np.ones(2), size=30))
        rep = build_report(self.model, self.X, self.labels, 2, bank=bank)
        assert (rep["ratios"]["same"], rep["ratios"]["correct"]) == agreement_ratios(
            bank, self.labels)
        assert rep["ratios"] != build_report(self.model, self.X, self.labels, 2)["ratios"]
        assert rep["snd"] == build_report(self.model, self.X, self.labels, 2)["snd"]

    def test_matches_evaluate_model(self):
        rep = build_report(self.model, self.X, self.labels, 2)
        er = evaluate_model(self.model, self.X, self.labels, 2)
        assert rep["accuracy"] == er.accuracy

    def test_json_round_trip(self, tmp_path):
        rep = build_report(self.model, self.X, self.labels, 2)
        p = tmp_path / "report.json"
        write_report_json(p, rep)
        back = json.loads(p.read_text())
        assert back["accuracy"] == rep["accuracy"]
        assert set(back) == set(rep)


class TestEvalReportShape:
    def test_dataclass_fields(self):
        rep = EvalReport(accuracy=0.5, per_class_accuracy={0: 0.5},
                         mean_per_class=0.5, n_samples=2)
        assert rep.to_dict()["n_samples"] == 2
