import dataclasses
import math
import warnings

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import benchmark_fixture as bm
import reference_scorer
from panqa.errors import DegeneracyError, InputError
from panqa.protocol import (CATEGORY_KEYS, QiRecord, RankTable, aggregate,
                            bin_subjective_scores, category_sum,
                            combine_partial_ranks, process_costs, rank, srcc,
                            winner_label, zscore)


def make_record(cid, seed):
    r = np.random.default_rng(seed)
    return QiRecord(
        candidate_id=cid,
        category1={k: float(r.random()) for k in
                   ("mean", "std", "skewness", "kurtosis", "entropy")},
        category2={"post_class_change": float(r.random()),
                   "inverse_pcc": float(r.random())},
        category3={k: float(r.random()) for k in
                   ("glcm_contrast", "glcm_energy", "glcm_lne",
                    "cross_aura")},
        category4={"binary_contour": float(r.random())},
        process={"wall_seconds": float(r.random()),
                 "n_free_parameters": 1 + int(seed) % 3},
    )


class TestZscore:
    def test_hand_values(self):
        z = zscore([1.0, 2.0, 3.0])
        assert z == pytest.approx([-1.2247448714, 0.0, 1.2247448714],
                                  abs=1e-9)

    def test_population_normalization(self, rng):
        z = zscore(rng.random(20))
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self, rng):
        x = rng.random(10)
        assert np.allclose(zscore(x), zscore(5.0 * x + 3.0), atol=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegeneracyError):
            zscore([2.0, 2.0, 2.0])
        # equal values whose mean rounds: their std is 1.4e-17
        with pytest.raises(DegeneracyError, match="of values 0.1 to 0.1"):
            zscore([0.1, 0.1, 0.1])
        # a std that overflows would standardize both values to 0
        with pytest.raises(DegeneracyError, match="std inf"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            zscore([-1e308, 1e308])
        with pytest.raises(InputError):
            zscore([1.0])


class TestRank:
    def test_competition_ties(self):
        assert rank([3.1, 2.0, 2.0, 5.0]) == [3, 1, 1, 4]

    def test_all_tied(self):
        assert rank([7.0, 7.0, 7.0]) == [1, 1, 1]
        with pytest.raises(InputError, match="empty value list"):
            rank([])

    def test_published_category_sums(self):
        assert rank(bm.CAT1_SUM) == bm.CAT1_PDPR

    def test_values_within_tol_tie(self):
        assert rank([0.0, 0.25, 0.5, 2.0], tol=0.25) == [1, 1, 2, 4]
        assert rank([2.0, -math.inf, math.inf, math.inf],
                    tol=0.25) == [2, 1, 3, 3]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3), st.floats(allow_nan=False)),
                    min_size=1, max_size=12))
    def test_rank_counts_strictly_better_values(self, values):
        ranks = rank(values)
        for i, x in enumerate(values):
            assert ranks[i] == 1 + sum(y < x for y in values)
            for j, y in enumerate(values):
                if x == y:
                    assert ranks[i] == ranks[j]


    @pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0],
                                        [1.0, 2.0, math.nan], [math.nan]])
    def test_nan_refused(self, values):
        # a NaN is neither smaller nor larger than anything: it has no rank
        with pytest.raises(InputError, match="cannot rank a NaN value"):
            rank(values)


class TestCategorySum:
    def test_single_column_equals_zscore(self):
        records = [make_record(f"c{i}", i) for i in range(5)]
        vals = [r.category4["binary_contour"] for r in records]
        total, dropped = category_sum(records, "category4")
        assert np.allclose(total, zscore(vals), atol=1e-12)
        assert dropped == []

    def test_case_without_ipcc_single_column(self):
        records = [make_record(f"c{i}", i) for i in range(5)]
        vals = [r.category2["post_class_change"] for r in records]
        got, _ = category_sum(records, "category2_ii")
        assert np.allclose(got, zscore(vals), atol=1e-12)

    def test_sum_is_sum_of_zscores(self):
        records = [make_record(f"c{i}", i) for i in range(6)]
        want = sum(zscore([r.category1[k] for r in records])
                   for k in ("mean", "std", "skewness", "kurtosis",
                             "entropy"))
        got, _ = category_sum(records, "category1")
        assert np.allclose(got, want, atol=1e-12)

    def test_degenerate_column_dropped_with_warning(self):
        # a column of one value is dropped, also where three 0.1s' mean
        # rounds, so that their std is 1.4e-17, not 0
        for value in (1.0, 0.1, 1e-300, -3.7e12):
            records = [make_record(f"c{i}", i) for i in range(3)]
            for r in records:
                r.category1["entropy"] = value
            got, dropped = category_sum(records, "category1")
            assert dropped == ["category1.entropy"], value
            want = sum(zscore([r.category1[k] for r in records])
                       for k in ("mean", "std", "skewness", "kurtosis"))
            assert np.allclose(got, want, atol=1e-12)
            with pytest.warns(UserWarning, match="category1.entropy"):
                assert aggregate(records).dropped_columns == [
                    "category1.entropy"]

    @pytest.mark.parametrize("order", [1, -1])
    def test_cost_held_by_some_records(self, order):
        records = [QiRecord("a", {"mean": 1.0}, {}, {}, {}, {}),
                   QiRecord("b", {}, {}, {}, {}, {})][::order]
        with pytest.raises(InputError,
                           match=r"candidate 'b' has no category1\.mean"):
            aggregate(records)
        # a key no record holds is skipped
        for r in records:
            r.category1 = {}
        total, dropped = category_sum(records, "category1")
        assert total.tolist() == [0.0, 0.0] and dropped == []

    def test_validation(self):
        records = [make_record("a", 0), make_record("b", 1)]
        with pytest.raises(InputError):
            category_sum(records, "category5")
        with pytest.raises(InputError):
            category_sum(records[:1], "category1")


class TestCombine:
    def test_published_product_cases(self):
        out = combine_partial_ranks(
            bm.CAT1_PDPR, bm.CAT2_PDPR_WITH, bm.CAT2_PDPR_WITHOUT,
            bm.CAT3_PDPR, bm.CAT4_PDPR, bm.PSPR1, bm.PSPR2)
        assert out["sum_case_a"] == bm.SUM_CASE_A
        assert out["pdfr_case_a"] == bm.PDFR_CASE_A
        assert out["sum_case_c"] == bm.SUM_CASE_C
        assert out["pdfr_case_c"] == bm.PDFR_CASE_C

    def test_published_process_cases(self):
        out = combine_partial_ranks(
            bm.CAT1_PDPR, bm.CAT2_PDPR_WITH, bm.CAT2_PDPR_WITHOUT,
            bm.CAT3_PDPR, bm.CAT4_PDPR, bm.PSPR1, bm.PSPR2)
        assert out["sum_case_b"] == bm.SUM_CASE_B
        assert out["ppfr_case_b"] == bm.PPFR_CASE_B
        assert out["sum_case_d"] == bm.SUM_CASE_D
        assert out["ppfr_case_d"] == bm.PPFR_CASE_D

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            combine_partial_ranks([1, 2], [1, 2], [1, 2], [1, 2], [1],
                                  [1, 2], [1, 2])
        with pytest.raises(InputError):
            combine_partial_ranks([1, 2], [1, 2], [1, 2], [1, 2], [1, 2],
                                  [1, 2], [1])


def pooled_record(cid, cost, n_free=1):
    """A record whose every cost and wall time is a cost() draw."""
    return QiRecord(
        candidate_id=cid,
        process={"wall_seconds": cost(), "n_free_parameters": n_free},
        **{name: {key: cost() for key in keys}
           for name, keys in CATEGORY_KEYS.items()})


@st.composite
def pooled_records(draw):
    """2-8 records whose costs come from a small pool, so that ties and
    columns of equal values (three 0.1s among them) are common."""
    pool = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5])
    return [pooled_record(f"c{i}", lambda: draw(pool),
                          draw(st.integers(1, 3)))
            for i in range(draw(st.integers(2, 8)))]


class TestAggregate:
    def test_end_to_end_consistency(self):
        records = [make_record(f"c{i}", i) for i in range(6)]
        table = aggregate(records)
        assert table.candidate_ids == [r.candidate_id for r in records]
        assert table.pdpr["category1"] == rank(
            category_sum(records, "category1")[0])
        assert table.pspr1 == rank([r.process["wall_seconds"]
                                    for r in records])
        want = [a + b + c + d for a, b, c, d in zip(
            table.pdpr["category1"], table.pdpr["category2_i"],
            table.pdpr["category3"], table.pdpr["category4"])]
        assert table.sum_case_a == want
        assert table.pdfr_case_a == rank(want)

    def test_dropped_columns_named_with_category(self):
        records = [make_record(f"c{i}", i) for i in range(3)]
        for r in records:
            r.category4["binary_contour"] = 0.25
            r.category2["post_class_change"] = 0.0
        with pytest.warns(UserWarning):
            table = aggregate(records)
        assert table.dropped_columns == ["category2.post_class_change",
                                         "category4.binary_contour"]
        assert table.pdpr["category4"] == [1, 1, 1]

    def test_one_warning_per_dropped_column(self):
        records = [make_record(f"c{i}", i) for i in range(3)]
        for r in records:
            r.category4["binary_contour"] = 0.25
            r.category2["post_class_change"] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            aggregate(records)
        assert [str(w.message) for w in caught] == [
            "dropping degenerate QI column 'category2.post_class_change'",
            "dropping degenerate QI column 'category4.binary_contour'"]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_permutation_equivariant(self, data):
        # 2, 4 or 8 candidates with small integer costs keep every mean and
        # squared deviation exact, so no z-score depends on the order numpy
        # sums the candidates in, and a tie cannot break by rounding
        n = data.draw(st.sampled_from([2, 4, 8]))
        cost = st.integers(0, 3).map(float)
        records = [QiRecord(
            candidate_id=f"c{i}",
            process={"wall_seconds": data.draw(cost),
                     "n_free_parameters": data.draw(st.integers(1, 3))},
            **{name: {key: data.draw(cost) for key in keys}
               for name, keys in CATEGORY_KEYS.items()})
            for i in range(n)]
        perm = data.draw(st.permutations(range(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = aggregate(records)
            permuted = aggregate([records[p] for p in perm])
        for f in dataclasses.fields(RankTable):
            got, want = getattr(permuted, f.name), getattr(table, f.name)
            if f.name == "dropped_columns":
                assert got == want
            elif f.name == "pdpr":
                assert got == {k: [col[p] for p in perm]
                               for k, col in want.items()}
            else:
                assert got == [want[p] for p in perm], f.name

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cancelling_columns_tie(self, data):
        # each pair of columns a and b = 1.7 - a, exact on a 2^-30 grid in
        # [0, 1], has z(b) = -z(a), so every category sum is 0 but those of
        # category 2(ii); compared exactly, the rounded sums split in most
        # draws
        n = data.draw(st.integers(3, 7))
        column = st.lists(st.integers(0, 2**30).map(lambda k: k / 2**30),
                          min_size=n, max_size=n).filter(
                              lambda a: min(a) < max(a))
        a, b, c, d, e = (data.draw(column) for _ in range(5))
        records = [QiRecord(
            candidate_id=f"c{i}",
            category1={"mean": a[i], "std": 1.7 - a[i], "skewness": b[i],
                       "kurtosis": 1.7 - b[i], "entropy": 0.5},
            category2={"post_class_change": c[i],
                       "inverse_pcc": 1.7 - c[i]},
            category3={"glcm_contrast": d[i], "glcm_energy": 1.7 - d[i],
                       "glcm_lne": e[i], "cross_aura": 1.7 - e[i]},
            category4={"binary_contour": 0.5}, process={})
            for i in range(n)]
        with pytest.warns(UserWarning, match="degenerate"):
            table = aggregate(records)
        assert table.dropped_columns == ["category1.entropy",
                                         "category4.binary_contour"]
        assert {k: v for k, v in table.pdpr.items()
                if k != "category2_ii"} == dict.fromkeys(
            ("category1", "category2_i", "category3", "category4"), [1] * n)
        assert table.pdpr["category2_ii"] == rank(c)
        assert table.columns() == reference_scorer.score(
            [r.entry() for r in records])[0]

    @settings(max_examples=200, deadline=None)
    @given(records=pooled_records())
    # three equal 0.1s, whose mean rounds, in every column
    @example(records=[pooled_record(f"c{i}", lambda: 0.1) for i in range(3)])
    def test_equals_reference_scorer(self, records):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = aggregate(records)
        cols, dropped = reference_scorer.score([r.entry() for r in records])
        assert table.columns() == cols
        assert table.dropped_columns == dropped

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            aggregate([make_record("x", 0), make_record("x", 1)])

    def test_unknown_cost_key_rejected(self):
        # category_sum reads only the keys CATEGORY_KEYS names, so an
        # unknown one would otherwise be left out without a word
        with pytest.raises(InputError, match=r"unknown category1 .*'men'"):
            QiRecord(candidate_id="a", category1={"men": 1.0}, category2={},
                     category3={}, category4={}, process={})

    def test_record_validation(self):
        with pytest.raises(InputError):
            make_record("bad", 0).__class__(
                candidate_id="bad", category1={"mean": float("nan")},
                category2={}, category3={}, category4={}, process={})


# integers tie often; -0.0 ties with 0.0, and each infinity with itself
TIED_VALUES = st.one_of(st.integers(-3, 3).map(float),
                        st.sampled_from([-0.0, math.inf, -math.inf]))


def reference_fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks by walking the stably sorted values: each run of equal
    values shares the mean of the positions it occupies."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestSrcc:
    def test_identical(self):
        assert srcc([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert srcc([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_d_squared_formula_when_tie_free(self, rng):
        # classic 1 - 6*sum(d^2)/(n(n^2-1)) closed form, only valid
        # without ties
        for _ in range(5):
            n = 12
            a = rng.permutation(n) + 1
            b = rng.permutation(n) + 1
            d2 = np.sum((a - b)**2)
            want = 1.0 - 6.0 * d2 / (n * (n**2 - 1))
            assert srcc(a, b) == pytest.approx(want, abs=1e-12)

    def test_published_tie_free_pair(self):
        assert srcc(bm.RANKS_ERGAS, bm.RANKS_SAM) == pytest.approx(
            bm.SRCC_ERGAS_SAM, abs=5e-5)

    def test_published_tied_pairs(self):
        pairs = [
            (bm.PDFR_CASE_C, bm.PPFR_CASE_D, bm.SRCC_C_D),
            (bm.RANKS_SAM, bm.PDFR_CASE_C, bm.SRCC_SAM_C),
            (bm.RANKS_ERGAS, bm.PDFR_CASE_C, bm.SRCC_ERGAS_C),
            (bm.RANKS_Q4, bm.PDFR_CASE_C, bm.SRCC_Q4_C),
        ]
        for a, b, want in pairs:
            assert srcc(a, b) == pytest.approx(want, abs=0.01)

    def test_degenerate(self):
        with pytest.raises(DegeneracyError):
            srcc([1, 1, 1], [1, 2, 3])

    def test_validation(self):
        with pytest.raises(InputError):
            srcc([1, 2], [1, 2, 3])
        with pytest.raises(InputError, match="need at least 2 ranks"):
            srcc([1], [1])

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=2, max_size=12))
    def test_tied_values_match_average_rank_pearson(self, pairs):
        # values from {0..3}, so most draws tie; tied values share the
        # mean of the positions they occupy
        a, b = (np.array(col, dtype=np.float64) for col in zip(*pairs))

        def average_ranks(x):
            below = (x[None, :] < x[:, None]).sum(axis=1)
            equal = (x[None, :] == x[:, None]).sum(axis=1)
            return below + (equal + 1) / 2.0

        ra, rb = average_ranks(a), average_ranks(b)
        if np.ptp(ra) == 0 or np.ptp(rb) == 0:
            with pytest.raises(DegeneracyError):
                srcc(a, b)
            return
        want = np.corrcoef(ra, rb)[0, 1]
        got = srcc(a, b)
        assert got == pytest.approx(want, abs=1e-12)
        assert srcc(b, a) == got
        # a strictly increasing map keeps every tie and every order
        assert srcc(np.exp(a), 10.0 * b - 7.0) == pytest.approx(got,
                                                                 abs=1e-12)


    @pytest.mark.parametrize("a, b", [([1, math.nan, 3], [1, 2, 3]),
                                      ([1, 2, 3], [3, 2, math.nan])])
    def test_nan_refused(self, a, b):
        with pytest.raises(InputError, match="cannot rank a NaN value"):
            srcc(a, b)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(TIED_VALUES, TIED_VALUES), min_size=2,
                          max_size=12))
    def test_equals_pearson_on_reference_ranks(self, pairs):
        a, b = (np.array(col, dtype=np.float64) for col in zip(*pairs))
        ra, rb = reference_fractional_ranks(a), reference_fractional_ranks(b)
        da, db = ra - ra.mean(), rb - rb.mean()
        denom = math.sqrt(np.sum(da**2) * np.sum(db**2))
        if denom == 0.0:
            with pytest.raises(DegeneracyError):
                srcc(a, b)
            return
        assert srcc(a, b) == float(np.sum(da * db) / denom)


class TestSubjective:
    def test_winner_label_dual(self):
        counts = [0, 40, 38, 0, 0, 0, 0]
        assert winner_label(counts) == "B/C"

    def test_winner_label_single(self):
        counts = [0, 40, 35, 0, 0, 0, 0]
        assert winner_label(counts) == "B"

    def test_clear_best_candidate(self):
        # candidate 0 consistently scored far better by every subject
        scores = np.array([
            [1.0, 1.0, 1.0, 1.0],
            [5.0, 5.2, 4.8, 5.1],
            [5.1, 5.0, 5.0, 4.9],
        ])
        labels = bin_subjective_scores(scores)
        assert labels[0] == "A"
        assert all(lab != "A" for lab in labels[1:])

    def test_validation(self):
        with pytest.raises(InputError):
            bin_subjective_scores(np.ones((3, 1)))


class TestProcessCosts:
    def test_defaults(self):
        assert process_costs({}) == {"wall_seconds": 0.0,
                                     "n_free_parameters": 1}

    @pytest.mark.parametrize("meta, message", [
        ({"n_free_parameters": 0}, "n_free_parameters must be >= 1"),
        ({"wall_seconds": -5}, "wall_seconds must be finite and >= 0"),
        ({"wall_seconds": float("inf")}, "wall_seconds must be finite"),
        ({"wall_seconds": float("nan")}, "wall_seconds must be finite"),
    ])
    def test_refused(self, meta, message):
        with pytest.raises(InputError, match=message):
            process_costs(meta)
        with pytest.raises(InputError, match=message):
            QiRecord(candidate_id="a", category1={}, category2={},
                     category3={}, category4={}, process=meta)
