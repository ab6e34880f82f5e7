"""Metric tests against brute-force threshold-sweep oracles."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtcf import metrics
from dtcf.errors import DataError, DomainError
from dtcf.metrics import (DCFParams, _sweep_rates, compute_eer, compute_min_dcf,
                          cosine_score, export_embeddings, read_embeddings,
                          score_trials, write_scores)


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------------ oracles

def eer_oracle(scores, labels):
    """O(n*m) counting sweep; same convention, independent arithmetic path."""
    tar = [s for s, l in zip(scores, labels) if l == "target"]
    non = [s for s, l in zip(scores, labels) if l == "nontarget"]
    thrs = [-np.inf] + sorted(set(scores)) + [np.inf]
    rates = []
    for th in thrs:
        far = sum(1 for s in non if s >= th) / len(non)
        frr = sum(1 for s in tar if s < th) / len(tar)
        rates.append((far, frr))
    for i, (far, frr) in enumerate(rates):
        gap = frr - far
        if gap == 0:
            return far
        if gap > 0:
            pf, pr = rates[i - 1]
            t = -(pr - pf) / (gap - (pr - pf))
            return pf + t * (far - pf)
    raise AssertionError("no crossing")


def min_dcf_oracle(scores, labels, p=DCFParams()):
    tar = [s for s, l in zip(scores, labels) if l == "target"]
    non = [s for s, l in zip(scores, labels) if l == "nontarget"]
    thrs = [-np.inf] + sorted(set(scores)) + [np.inf]
    norm = min(p.c_miss * p.p_target, p.c_fa * (1 - p.p_target))
    best = np.inf
    for th in thrs:
        p_fa = sum(1 for s in non if s >= th) / len(non)
        p_miss = sum(1 for s in tar if s < th) / len(tar)
        best = min(best, (p.c_miss * p_miss * p.p_target + p.c_fa * p_fa * (1 - p.p_target)) / norm)
    return best


def dense_sweep_rates(tar, non):
    """The original O(N^2) sweep: one bool per (threshold, score) pair."""
    thr = np.concatenate(([-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]))
    far = (non[None, :] >= thr[:, None]).mean(axis=1)
    frr = (tar[None, :] < thr[:, None]).mean(axis=1)
    return thr, far, frr


def random_scoreset(n, seed):
    r = rng(seed)
    labels = ["target" if v else "nontarget" for v in r.integers(0, 2, n)]
    # half-overlapping score distributions
    scores = [r.normal(1.0 if l == "target" else 0.0) for l in labels]
    return scores, labels


# ------------------------------------------------------------------ cosine

class TestCosine:
    def test_self_similarity(self):
        v = rng(1).normal(size=16)
        assert cosine_score(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_score([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_matches_float64_oracle(self):
        a, b = rng(2).normal(size=16), rng(3).normal(size=16)
        expect = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cosine_score(a, b) == pytest.approx(expect, abs=1e-7)
        assert -1.0 <= cosine_score(a, b) <= 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DomainError):
            cosine_score(np.zeros(4), np.ones(4))


# ------------------------------------------------------------------ EER

class TestEER:
    def test_perfect_separation(self):
        eer, _ = compute_eer([0.9, 0.8, 0.1, 0.2],
                             ["target", "target", "nontarget", "nontarget"])
        assert eer == 0.0

    def test_perfect_anti_separation(self):
        eer, _ = compute_eer([0.9, 0.8, 0.1, 0.2],
                             ["nontarget", "nontarget", "target", "target"])
        assert eer == 1.0

    def test_chance_level(self):
        scores, labels = random_scoreset(4000, seed=4)
        shuffled = list(labels)
        rng(5).shuffle(shuffled)
        eer, _ = compute_eer(scores, shuffled)
        assert 0.4 < eer < 0.6

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_brute_force_exactly(self, seed):
        scores, labels = random_scoreset(1000, seed)
        eer, _ = compute_eer(scores, labels)
        assert eer == eer_oracle(scores, labels)

    def test_threshold_is_operating_point(self):
        scores, labels = random_scoreset(500, seed=13)
        eer, th = compute_eer(scores, labels)
        tar = np.array([s for s, l in zip(scores, labels) if l == "target"])
        non = np.array([s for s, l in zip(scores, labels) if l == "nontarget"])
        far = float((non >= th).mean())
        frr = float((tar < th).mean())
        # at the crossing the two step functions straddle the common value
        assert min(far, frr) - 1e-9 <= eer <= max(far, frr) + 1e-9

    def test_degenerate_labels_rejected(self):
        with pytest.raises(DataError):
            compute_eer([0.5, 0.4], ["target", "target"])
        with pytest.raises(DataError):
            compute_eer([], [])


# ------------------------------------------------------------------ minDCF

class TestMinDCF:
    def test_perfect_separation_zero(self):
        mdcf, _ = compute_min_dcf([0.9, 0.8, 0.1], ["target", "target", "nontarget"])
        assert mdcf == 0.0

    def test_scoreless_guessing_is_one(self):
        mdcf, _ = compute_min_dcf([0.5] * 10, ["target"] * 5 + ["nontarget"] * 5)
        assert mdcf == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_matches_brute_force_exactly(self, seed):
        scores, labels = random_scoreset(1000, seed)
        mdcf, _ = compute_min_dcf(scores, labels)
        assert mdcf == min_dcf_oracle(scores, labels)

    def test_normalised_range(self):
        for seed in range(30, 40):
            scores, labels = random_scoreset(200, seed)
            mdcf, _ = compute_min_dcf(scores, labels)
            assert 0.0 <= mdcf <= 1.0

    def test_custom_params(self):
        scores, labels = random_scoreset(300, seed=41)
        p = DCFParams(p_target=0.05, c_miss=10.0, c_fa=1.0)
        assert compute_min_dcf(scores, labels, p)[0] == min_dcf_oracle(scores, labels, p)


# ------------------------------------------------------------------ sweep

@st.composite
def tied_scoresets(draw):
    """Target and nontarget scores on 1 to 5 distinct levels (1: all equal)
    or continuous, 1..N-1 targets (often just one of either class) and
    occasional infinities and signed zeros."""
    n = draw(st.integers(2, 500))
    n_tar = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    levels = draw(st.sampled_from([1, 2, 3, 5, 0]))       # 0: continuous
    r = rng(draw(st.integers(0, 2**32 - 1)))
    scores = r.normal(size=n) if levels == 0 else r.integers(0, levels, n) / 4.0
    if draw(st.booleans()):
        k = r.integers(0, n, size=r.integers(1, 4))
        scores[k] = r.choice([-np.inf, np.inf, 0.0, -0.0], size=k.size)
    return scores[:n_tar], scores[n_tar:]


class TestSweep:
    @settings(max_examples=300, deadline=None)
    @given(tied_scoresets())
    def test_equals_dense_sweep(self, scoreset):
        tar, non = scoreset
        got, want = _sweep_rates(tar, non), dense_sweep_rates(tar, non)
        for name, g, w in zip(("thr", "far", "frr"), got, want):
            assert np.array_equal(g, w), name

    def test_nan_score_rejected(self):
        with pytest.raises(DataError, match="NaN"):
            compute_eer([0.1, np.nan, 0.3], ["target", "nontarget", "target"])

    def test_memory_is_linear(self):
        """200k trials: the dense sweep would need ~40 GB of comparisons."""
        scores, labels = random_scoreset(200_000, seed=70)
        tracemalloc.start()
        try:
            compute_eer(scores, labels)
            compute_min_dcf(scores, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestRankInvariance:
    @pytest.mark.parametrize("transform", [
        lambda s: 2.0 * s + 3.0,
        lambda s: s ** 3,
        lambda s: np.tanh(s) * 5.0,
    ])
    def test_monotone_transform_invariance(self, transform):
        scores, labels = random_scoreset(400, seed=50)
        base_eer, _ = compute_eer(scores, labels)
        base_dcf, _ = compute_min_dcf(scores, labels)
        ts = [float(transform(np.float64(s))) for s in scores]
        assert compute_eer(ts, labels)[0] == pytest.approx(base_eer, abs=1e-12)
        assert compute_min_dcf(ts, labels)[0] == pytest.approx(base_dcf, abs=1e-12)


# ------------------------------------------------------------------ plumbing

class TestScoreTrials:
    def make_store(self, n=6, dim=8, seed=60):
        r = rng(seed)
        return {f"u{i}": r.normal(size=dim) for i in range(n)}

    def test_order_and_count(self):
        store = self.make_store()
        trials = [("u0", "u1", "target"), ("u2", "u3", "nontarget"), ("u0", "u1", "target")]
        scored = score_trials(store, trials)
        assert scored.shape == (3,) and scored.dtype == np.float64
        assert scored[0] == scored[2]
        perm = [trials[2], trials[0], trials[1]]
        rescored = score_trials(store, perm)
        assert rescored.tolist() == [scored[2], scored[0], scored[1]]

    def test_missing_id_named(self):
        store = self.make_store(2)
        with pytest.raises(DataError, match="nope"):
            score_trials(store, [("u0", "nope", "target")])

    def test_float32_store_matches_cosine(self):
        r = rng(63)
        store = {f"u{i}": r.normal(size=192).astype(np.float32) for i in range(20)}
        trials = [(f"u{a}", f"u{b}", "target") for a, b in r.integers(0, 20, (300, 2))]
        for (e, t, _), got in zip(trials, score_trials(store, trials)):
            assert abs(got - cosine_score(store[e], store[t])) <= 1e-12

    def test_duplicate_trials_identical(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK", 17)
        store = self.make_store(n=10, dim=37, seed=64)
        trials = [(f"u{i % 10}", f"u{(3 * i) % 10}", "target") for i in range(40)]
        scored = score_trials(store, trials * 3)
        for i, score in enumerate(scored):
            assert score == scored[i % 40]

    def test_unreferenced_zero_norm_is_fine(self):
        store = self.make_store()
        store["z"] = np.zeros(8)
        assert len(score_trials(store, [("u0", "u1", "target")])) == 1
        with pytest.raises(DomainError, match="zero-norm"):
            score_trials(store, [("u0", "u1", "target"), ("u2", "z", "nontarget")])

    def test_ragged_store_rejected(self):
        store = self.make_store()
        store["short"] = np.ones(5)
        with pytest.raises(DataError, match="one dimension"):
            score_trials(store, [("u0", "u1", "target")])

    @pytest.mark.parametrize("block", [1, 2, 1024])
    def test_first_missing_id_in_trial_order_named(self, block, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK", block)
        store = self.make_store()
        store["z"] = np.zeros(8)
        trials = [("u0", "u1", "target"), ("u2", "ghost_b", "target"),
                  ("ghost_a", "u3", "nontarget"), ("z", "u1", "target")]
        with pytest.raises(DataError, match="ghost_b"):
            score_trials(store, trials)
        with pytest.raises(DomainError):
            score_trials(store, trials[:1] + trials[3:] + trials[1:3])
        with pytest.raises(DataError, match="ghost_c"):      # ids are checked first
            score_trials(store, trials[:1] + [("z", "ghost_c", "target")])

    def test_blocks_equal_one_at_a_time(self):
        store = self.make_store(n=30, dim=64, seed=65)
        r = rng(66)
        trials = [(f"u{a}", f"u{b}", "nontarget") for a, b in r.integers(0, 30, (2500, 2))]
        assert len(trials) > 2 * metrics._BLOCK
        assert score_trials(store, trials).tolist() == [score_trials(store, [t])[0] for t in trials]

    def test_memory_is_store_plus_one_block(self):
        """100k trials over a 500 x 512 store: the working memory beyond the
        returned array is bounded by the store and one block, not the trials
        (gathering every pair at once would take 800 MB)."""
        r = rng(67)
        store = {f"u{i}": r.normal(size=512) for i in range(500)}
        trials = [(f"u{a}", f"u{b}", "target") for a, b in r.integers(0, 500, (100_000, 2))]
        store_mb, block_mb = 500 * 512 * 8 / 2**20, 2 * metrics._BLOCK * 512 * 8 / 2**20
        tracemalloc.start()
        try:
            scored = score_trials(store, trials)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scored) == 100_000
        work_mb = (peak - current) / 2**20
        assert work_mb < store_mb + 1.5 * block_mb, f"{work_mb:.1f} MiB"

    def test_write_scores_csv(self, tmp_path):
        store = self.make_store()
        trials = [("u0", "u1", "target")]
        path = tmp_path / "scores.csv"
        write_scores(path, trials, score_trials(store, trials))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "enroll,test,label,score"
        assert lines[1].startswith("u0,u1,target,")


class TestExport:
    def test_row_count_and_round_trip(self, tmp_path):
        r = rng(61)
        store = {f"u{i:02d}": (f"s{i % 3}", r.normal(size=16)) for i in range(5)}
        path = tmp_path / "emb.csv"
        export_embeddings(store, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        back = read_embeddings(path)
        for utt, (spk, emb) in store.items():
            assert back[utt][0] == spk
            np.testing.assert_allclose(back[utt][1], emb, atol=1e-12)

    def test_re_export_byte_identical(self, tmp_path):
        r = rng(62)
        store = {f"u{i}": ("s0", r.normal(size=8)) for i in range(4)}
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_embeddings(store, p1)
        export_embeddings(store, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sorted_by_utt_id(self, tmp_path):
        store = {"zz": ("s", np.zeros(2)), "aa": ("s", np.zeros(2)), "mm": ("s", np.zeros(2))}
        path = tmp_path / "e.csv"
        export_embeddings(store, path)
        ids = [l.split(",")[0] for l in path.read_text().strip().splitlines()[1:]]
        assert ids == sorted(ids)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("utt_id,speaker_id,e0,e1\n\nu0,s0,1.0,2.0\n\nu1,s1,3.0,4.0\n\n")
        back = read_embeddings(path)
        assert sorted(back) == ["u0", "u1"]
        np.testing.assert_array_equal(back["u1"][1], [3.0, 4.0])

    @pytest.mark.parametrize("row", ["u1,s1,3.0,x", "u1,s1,", "u1,s1", "u1",
                                     "u1,s1,3.0,4.0,5.0", "u0,s0,3.0,4.0"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "e.csv"
        path.write_text(f"utt_id,speaker_id,e0,e1\nu0,s0,1.0,2.0\n\n{row}\n")
        with pytest.raises(DataError, match=r"e\.csv:4"):
            read_embeddings(path)

    def test_values_equal_float_per_value(self, tmp_path):
        """Bit for bit what float() gives for each exported value, -0.0 and
        subnormals included."""
        r = rng(68)
        vecs = r.normal(size=(50, 512)) * 10.0 ** r.integers(-300, 300, size=(50, 512))
        vecs[0, :4] = [-0.0, 0.0, 5e-324, -2.5e-310]
        path = tmp_path / "e.csv"
        export_embeddings({f"u{i:02d}": ("s", v) for i, v in enumerate(vecs)}, path)
        with open(path, newline="") as f:
            oracle = {row[0]: [float(v) for v in row[2:]] for row in list(csv.reader(f))[1:]}
        back = read_embeddings(path)
        assert list(back) == list(oracle)
        for utt, values in oracle.items():
            got = back[utt][1]
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(values, dtype=np.float64).tobytes()
        assert back["u00"][1][:4].tobytes() == np.array([-0.0, 0.0, 5e-324, -2.5e-310]).tobytes()

    def test_parse_memory_is_one_block_of_text(self, tmp_path):
        """4,000 x 512 values, about 38 MB of text: the working memory beyond
        the parsed result stays a few MiB, well under the file's size."""
        r = rng(69)
        path = tmp_path / "e.csv"
        export_embeddings({f"u{i:04d}": ("s", v) for i, v in enumerate(r.normal(size=(4000, 512)))},
                          path)
        assert path.stat().st_size > 35e6
        tracemalloc.start()
        try:
            back = read_embeddings(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 4000
        work_mb = (peak - current) / 2**20
        assert work_mb < 6, f"{work_mb:.1f} MiB"
