"""Frontend tests: fbank geometry, masking, synthetic corpus determinism."""

import hashlib
import tracemalloc
import wave

import numpy as np
import pytest

import dtcf.synth
from dtcf.audio import (AugmentConfig, Waveform, fbank,
                        mel_filterbank, read_wav, spec_augment, write_wav)
from dtcf.errors import ConfigError, DataError
from dtcf.synth import (SyntheticSpeakerSpec, _formant_gain, read_manifest, read_trials,
                        synth_corpus, synth_utterance)


def rng(seed=0):
    return np.random.default_rng(seed)


def sine(freq, dur=1.0, sr=16000, amp=0.5):
    t = np.arange(int(dur * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


SPEC_A = SyntheticSpeakerSpec("a", (500.0, 1500.0, 2500.0), (100.0, 120.0), -6.0, seed=1)
SPEC_B = SyntheticSpeakerSpec("b", (800.0, 2000.0, 3200.0), (180.0, 210.0), -9.0, seed=2)


class TestFbank:
    def test_frame_count_one_second(self):
        out = fbank(sine(440.0, dur=1.0))
        assert out.shape == (98, 80)          # 1 + (16000 - 400) // 160

    def test_pure_tone_energy_at_expected_bin(self):
        out = fbank(sine(1000.0))
        # oracle from the filterbank geometry: project a 1 kHz line spectrum
        fb = mel_filterbank(80, 512, 16000)
        k = round(1000.0 / (16000 / 512))
        expect_bin = int(np.argmax(fb[:, k]))
        got = np.argmax(out, axis=1)
        assert np.all(got == expect_bin)

    def test_silence_is_log_floor(self):
        out = fbank(Waveform(np.zeros(16000)))
        np.testing.assert_allclose(out, np.log(1e-10), atol=1e-5)

    def test_too_short_waveform(self):
        with pytest.raises(DataError):
            fbank(Waveform(np.zeros(399)))

    def test_deterministic_and_length_covariant(self):
        wav = sine(700.0, dur=2.0)
        a, b = fbank(wav), fbank(wav)
        np.testing.assert_array_equal(a, b)
        # hop-aligned extension of the audio only appends frames
        longer = Waveform(np.concatenate([wav.samples, wav.samples[:1600]]), 16000)
        c = fbank(longer)
        assert c.shape[0] == a.shape[0] + 10
        np.testing.assert_allclose(c[:a.shape[0]], a, atol=1e-5)

    def test_finite_output(self):
        wav = Waveform(rng(1).uniform(-1, 1, 8000))
        assert np.all(np.isfinite(fbank(wav)))

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            fbank(sine(440.0, dur=1.0), n_mels=0)


class TestSpecAugment:
    @pytest.mark.parametrize("name", ["time_mask_max", "freq_mask_max",
                                      "n_time_masks", "n_freq_masks"])
    def test_negative_setting_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            AugmentConfig(**{name: -1})

    def test_zero_masks_identity(self):
        feats = rng(2).normal(size=(50, 80)).astype(np.float32)
        cfg = AugmentConfig(n_time_masks=0, n_freq_masks=0)
        np.testing.assert_array_equal(spec_augment(feats, cfg, rng(3)), feats)

    def test_time_mask_cell_count(self):
        feats = rng(4).normal(size=(60, 80)).astype(np.float32)
        cfg = AugmentConfig(time_mask_max=10, n_time_masks=1, n_freq_masks=0)
        r = rng(5)
        out = spec_augment(feats, cfg, r)
        changed = np.any(out != feats, axis=1)
        width = int(changed.sum())
        assert 0 <= width <= 10
        if width:
            assert np.all(np.diff(np.flatnonzero(changed)) == 1)   # one contiguous band
            assert (out[changed] != feats[changed]).sum() == width * 80

    def test_fill_value_is_premask_mean(self):
        feats = rng(6).normal(size=(40, 80)).astype(np.float32)
        cfg = AugmentConfig(time_mask_max=8, freq_mask_max=6)
        out = spec_augment(feats, cfg, rng(7))
        mask = out != feats
        if mask.any():
            np.testing.assert_allclose(out[mask], feats.mean(), atol=1e-6)

    def test_shape_and_finiteness(self):
        feats = rng(8).normal(size=(30, 80)).astype(np.float32)
        out = spec_augment(feats, AugmentConfig(), rng(9))
        assert out.shape == feats.shape
        assert np.all(np.isfinite(out))

    def test_overwide_mask_rejected(self):
        with pytest.raises(ConfigError):
            spec_augment(np.zeros((9, 80), dtype=np.float32), AugmentConfig(time_mask_max=10), rng(10))


class TestSynthUtterance:
    def test_bit_identical_repeats(self):
        a = synth_utterance(SPEC_A, 1.5, utt_seed=7)
        b = synth_utterance(SPEC_A, 1.5, utt_seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = synth_utterance(SPEC_A, 1.5, utt_seed=7)
        b = synth_utterance(SPEC_A, 1.5, utt_seed=8)
        assert not np.array_equal(a.samples, b.samples)

    def test_peak_bounded(self):
        wav = synth_utterance(SPEC_B, 2.0, utt_seed=0)
        assert np.abs(wav.samples).max() <= 1.0

    def test_disjoint_formants_have_different_energy_profiles(self):
        fa = fbank(synth_utterance(SPEC_A, 2.0, utt_seed=1))
        fb = fbank(synth_utterance(SPEC_B, 2.0, utt_seed=1))
        assert int(np.argmax(fa.mean(axis=0))) != int(np.argmax(fb.mean(axis=0)))

    def test_duration_bounds(self):
        with pytest.raises(ConfigError):
            synth_utterance(SPEC_A, 0.5, utt_seed=0)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SyntheticSpeakerSpec("x", (800.0, 700.0, 2500.0), (90.0, 110.0), -6.0, 0)


# F0 up to 100 Hz: the most harmonics a corpus voice gets, 72 (0.45 * 16 kHz / f_hi)
SPEC_LOW = SyntheticSpeakerSpec("low", (450.0, 1300.0, 2700.0), (80.0, 100.0), -4.0, seed=3)


def one_array_utterance(spec, duration, utt_seed):
    """The oracle: the harmonic bank rendered over the whole utterance as one
    (harmonics x samples) array, as `synth_utterance` did before it rendered blocks."""
    rng = np.random.default_rng((spec.seed, utt_seed))
    n = int(round(duration * 16000))
    t = np.arange(n) / 16000
    f_lo, f_hi = spec.f0_range
    wobble_rate = rng.uniform(0.4, 1.6)
    wobble_phase = rng.uniform(0, 2 * np.pi)
    f0 = f_lo + (f_hi - f_lo) * (0.5 + 0.45 * np.sin(2 * np.pi * wobble_rate * t + wobble_phase))
    n_harm = max(3, int((0.45 * 16000) / f_hi))
    phase = 2.0 * np.pi * np.cumsum(f0) / 16000
    ks = np.arange(1, n_harm + 1)[:, None]
    coarse = _formant_gain(ks * f0[None, ::160], spec.formants, spec.tilt_db_per_octave)
    amp = np.repeat(coarse, 160, axis=1)[:, :n]
    sig = (amp * np.sin(ks * phase[None, :])).sum(axis=0)
    sig = sig + rng.normal(size=n) * (10.0 ** (-40.0 / 20.0)) * max(np.abs(sig).max(), 1e-9)
    return 0.95 * sig / np.abs(sig).max()


class TestSynthUtteranceBlocks:
    """`synth_utterance` equals the one-array oracle bit for bit. The lengths sit
    on and around multiples of 4,096 samples (the render block) and of 160 (the
    amplitude grid's step): 16,000 and 160,000 are 1 s and 10 s, 16,384 is four
    blocks, 20,480 both five blocks and 128 grid steps, and a length one sample
    past a multiple of the block would leave a one-sample block if the blocks
    were cut at multiples of it (numpy sums a one-column array pairwise)."""

    @pytest.mark.parametrize("spec", [SPEC_LOW, SPEC_A, SPEC_B], ids=["72-harm", "60-harm", "34-harm"])
    @pytest.mark.parametrize("n", [16000, 160000, 16383, 16384, 16385, 20479, 20480, 20481, 40961])
    def test_equals_one_array_oracle(self, spec, n):
        duration = n / 16000
        wav = synth_utterance(spec, duration, utt_seed=n % 7)
        assert wav.samples.size == n
        assert np.array_equal(wav.samples, one_array_utterance(spec, duration, n % 7))

    @pytest.mark.parametrize("block", [3, 159, 160, 161, 1000, 4095, 16383, 200000])
    def test_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(dtcf.synth, "_BLOCK", block)
        wav = synth_utterance(SPEC_LOW, 16001 / 16000, utt_seed=1)
        assert np.array_equal(wav.samples, one_array_utterance(SPEC_LOW, 16001 / 16000, 1))

    def test_memory_is_result_plus_a_block(self):
        """10 s at 72 harmonics: the working memory beyond the 1.2 MiB result
        stays under 16 MiB, where the whole bank's (72, 160000) float64 arrays
        (88 MiB each) would take about 267 MiB."""
        tracemalloc.start()
        try:
            wav = synth_utterance(SPEC_LOW, 10.0, utt_seed=0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wav.samples.size == 160000
        work_mb = (peak - current) / 2**20
        assert work_mb < 16, f"{work_mb:.1f} MiB"


def corpus_files(out_dir):
    return sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file())


def corpus_digest(out_dir):
    """sha256 over every file of a corpus in path order: each relative path, then its bytes."""
    digest = hashlib.sha256()
    for rel in corpus_files(out_dir):
        digest.update(rel.encode() + b"\0")
        digest.update((out_dir / rel).read_bytes())
    return digest.hexdigest()


# every WAV, manifest.csv, train.csv and trials.txt of synth_corpus(3, 4, seed=0)
DEFAULT_CORPUS_DIGEST = "5c26d0bb46d7ce387d0bab9f80493e0e53ea9cbd8b6cfd6e3f6b41f0feacc00f"


def test_default_corpus_digest(tmp_path):
    synth_corpus(3, 4, seed=0, out_dir=tmp_path)
    assert corpus_files(tmp_path) == ["manifest.csv", "train.csv", "trials.txt"] + [
        f"wav/spk{s:03d}_u{u:03d}.wav" for s in range(3) for u in range(4)]
    assert corpus_digest(tmp_path) == DEFAULT_CORPUS_DIGEST


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return synth_corpus(4, 6, seed=11, out_dir=tmp_path_factory.mktemp("corp"))


class TestCorpus:
    def test_counts(self, corpus):
        rows = read_manifest(corpus.manifest_path)
        assert len(rows) == 24 == corpus.n_utterances
        assert len({spk for _, spk, _ in rows}) == 4

    def test_wavs_round_trip(self, corpus):
        rows = read_manifest(corpus.manifest_path)
        wav = read_wav(rows[0][2])
        assert wav.sample_rate == 16000
        assert 2.0 <= wav.samples.size / wav.sample_rate <= 3.5

    def test_no_self_pairs_and_balance(self, corpus):
        trials = read_trials(corpus.trials_path)
        assert all(e != t for e, t, _ in trials)
        labels = [l for _, _, l in trials]
        assert labels.count("target") == labels.count("nontarget") > 0

    def test_train_split_excludes_heldout(self, corpus):
        train = {u for u, _, _ in read_manifest(corpus.train_path)}
        held = {u for e, t, _ in read_trials(corpus.trials_path) for u in (e, t)}
        assert train and held and not (train & held)

    def test_same_seed_same_manifest_hash(self, corpus, tmp_path):
        again = synth_corpus(4, 6, seed=11, out_dir=tmp_path / "again")
        h1 = hashlib.sha256(corpus.manifest_path.read_bytes()).hexdigest()
        h2 = hashlib.sha256(again.manifest_path.read_bytes()).hexdigest()
        assert h1 == h2
        t1 = corpus.trials_path.read_bytes()
        t2 = again.trials_path.read_bytes()
        assert t1 == t2

    def test_speakers_lower_bound(self, tmp_path):
        with pytest.raises(ConfigError):
            synth_corpus(1, 4, seed=0, out_dir=tmp_path / "bad")

    def test_nearest_centroid_separability(self, corpus):
        rows = read_manifest(corpus.manifest_path)
        held = {u for e, t, _ in read_trials(corpus.trials_path) for u in (e, t)}
        mean_feats = {u: fbank(read_wav(p)).mean(axis=0) for u, _, p in rows}
        centroids = {}
        for utt, spk, _ in rows:
            if utt not in held:
                centroids.setdefault(spk, []).append(mean_feats[utt])
        centroids = {s: np.mean(v, axis=0) for s, v in centroids.items()}
        spks = sorted(centroids)
        correct = total = 0
        for utt, spk, _ in rows:
            if utt in held:
                d = [np.linalg.norm(mean_feats[utt] - centroids[s]) for s in spks]
                correct += spks[int(np.argmin(d))] == spk
                total += 1
        assert total > 0 and correct / total > 0.9


def test_manifest_not_utf8_named(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"utt_id,speaker_id,path\n\xff\xfeu0,s0,a.wav\n")
    with pytest.raises(DataError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"


class TestWavIO:
    def test_round_trip(self, tmp_path):
        wav = Waveform(rng(12).uniform(-0.9, 0.9, 5000))
        write_wav(tmp_path / "x.wav", wav)
        back = read_wav(tmp_path / "x.wav")
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, wav.samples, atol=1.0 / 32767)


class TestDamagedWav:
    """A damaged WAV file ends in a DataError naming it; each case is a prefix or a
    corruption of a valid file of 50 samples (a 44-byte header and 100 data bytes)."""

    @pytest.fixture
    def valid(self, tmp_path):
        write_wav(tmp_path / "ok.wav", Waveform(np.linspace(-0.5, 0.5, 50)))
        return (tmp_path / "ok.wav").read_bytes()

    def damaged(self, tmp_path, data):
        path = tmp_path / "bad.wav"
        path.write_bytes(data)
        with pytest.raises(DataError) as err:
            read_wav(path)
        return str(err.value), path

    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_under_8_bytes(self, tmp_path, valid, size):
        message, path = self.damaged(tmp_path, valid[:size])
        assert message == f"{path}: not a readable WAV file (the file ends inside its header)"

    def test_not_riff(self, tmp_path, valid):
        message, path = self.damaged(tmp_path, b"RIFX" + valid[4:])
        assert message == f"{path}: not a readable WAV file (file does not start with RIFF id)"

    @pytest.mark.parametrize("size, reason", [
        (8, "not a WAVE file"), (12, "fmt chunk and/or data chunk missing"),
        (20, "the file ends inside its header"), (36, "fmt chunk and/or data chunk missing"),
    ])
    def test_header_cut_short(self, tmp_path, valid, size, reason):
        message, path = self.damaged(tmp_path, valid[:size])
        assert message == f"{path}: not a readable WAV file ({reason})"

    @pytest.mark.parametrize("size", [45, 143])
    def test_odd_data_byte_count(self, tmp_path, valid, size):
        message, path = self.damaged(tmp_path, valid[:size])
        assert message == f"{path}: data chunk cut short ({size - 44} of 100 bytes)"

    @pytest.mark.parametrize("size", [44, 100, 142])
    def test_data_shorter_than_its_header_says(self, tmp_path, valid, size):
        message, path = self.damaged(tmp_path, valid[:size])
        assert message == f"{path}: data chunk cut short ({size - 44} of 100 bytes)"

    def test_no_frames(self, tmp_path):
        with wave.open(str(tmp_path / "empty.wav"), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(16000)
        data = (tmp_path / "empty.wav").read_bytes()
        assert len(data) == 44                  # a well-formed header, an empty data chunk
        message, path = self.damaged(tmp_path, data)
        assert message == f"{path}: data chunk is empty"


def stereo_wav(path):
    with wave.open(str(path), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(bytes(400))
    return path


def written(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp: Waveform(np.zeros(0)), DataError, "non-empty mono"),
    (lambda tmp: Waveform(np.zeros((2, 100))), DataError, "non-empty mono"),
    (lambda tmp: Waveform(np.array([0.1, np.nan, 0.2])), DataError, "non-finite"),
    (lambda tmp: read_wav(stereo_wav(tmp / "st.wav")), DataError, "16-bit PCM mono"),
    (lambda tmp: SyntheticSpeakerSpec("x", (500.0, 1500.0, 2500.0), (120.0, 100.0), -6.0, 0),
     ConfigError, "bad f0 range"),
    (lambda tmp: SyntheticSpeakerSpec("x", (500.0, 1500.0, 2500.0), (0.0, 100.0), -6.0, 0),
     ConfigError, "bad f0 range"),
    (lambda tmp: synth_corpus(3, 3, seed=0, out_dir=tmp / "c"), ConfigError,
     "at least 4 utterances"),
    (lambda tmp: read_manifest(written(tmp / "m.csv", "utt,spk,path\nu0,s0,a.wav\n")),
     DataError, "bad manifest header"),
    (lambda tmp: read_manifest(written(tmp / "m.csv",
                                       "utt_id,speaker_id,path\nu0,s0,a.wav\nu1,s1\n")),
     DataError, r"m\.csv:3: bad manifest row \['u1', 's1'\]"),
    (lambda tmp: read_manifest(written(tmp / "m.csv", "utt_id,speaker_id,path\n")),
     DataError, "empty manifest"),
    (lambda tmp: read_trials(written(tmp / "t.txt", "u0 u1 target\nu0 u2\n")),
     DataError, "bad trial line"),
    (lambda tmp: read_trials(written(tmp / "t.txt", "u0 u1 maybe\n")),
     DataError, "bad trial line"),
    (lambda tmp: read_trials(written(tmp / "t.txt", "\n  \n")), DataError, "empty trial list"),
], ids=["waveform-empty", "waveform-2d", "waveform-nan", "wav-stereo", "f0-reversed",
        "f0-zero", "corpus-3-utterances", "manifest-header", "manifest-short-row",
        "manifest-empty", "trials-short-line", "trials-bad-label", "trials-empty"])
def test_named_input_errors(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)
    assert not (tmp_path / "c").exists()       # synth_corpus refuses before it writes


class TestReadTrials:
    """What `read_trials` returns, and the exact error it raises, for lines that
    a check of the whole token stream alone would misread."""

    @pytest.mark.parametrize("data, lineno, line", [
        # 4 tokens then 2: the token count is still a multiple of 3, and every third
        # token is a label
        (b"u0 u1 target u2\nu3 target\n", 1, "'u0 u1 target u2\\n'"),
        (b"u0 u1 target\nu0 u2 maybe\n", 2, "'u0 u2 maybe\\n'"),
        (b"target u1 nontarget\ntarget target\n", 2, "'target target\\n'"),
        (b"u0 u1 target\n\n   \n\t\nu2 u3\nu4 u5 maybe\n", 5, "'u2 u3\\n'"),
        (b"u0 u1 target\r\nu2 u3 maybe\r\n", 2, "'u2 u3 maybe\\n'"),
        (b"u0 u1 target\ru2 u3 maybe\r", 2, "'u2 u3 maybe\\n'"),
        (b"u0 u1 target\nu2 u3 maybe", 2, "'u2 u3 maybe'"),
        (b"u0 u1 target\n" * 5000 + b"u0 u1 target nontarget\n", 5001,
         "'u0 u1 target nontarget\\n'"),
    ], ids=["4-then-2-tokens", "bad-label", "id-target-short-line", "after-blank-lines",
            "crlf", "cr", "no-final-newline", "after-5000-lines"])
    def test_bad_line_named_as_written(self, tmp_path, data, lineno, line):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(DataError) as err:
            read_trials(path)
        assert str(err.value) == f"{path}:{lineno}: bad trial line {line}"

    def test_not_utf8_named(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"u0 u1 target\n\xff\xfeu2 u3 nontarget\n")
        with pytest.raises(DataError) as err:
            read_trials(path)
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("data", [b"\n", b"\n \n\t\n", b"\r\n  \r\n"])
    def test_blank_lines_only(self, tmp_path, data):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(DataError) as err:
            read_trials(path)
        assert str(err.value) == f"{path}: empty trial list"

    def test_valid_lines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("target target nontarget\n\n \t\nu0 u1 target\r\n"
                         "u2\x85u3\x0bnontarget\ré 中 target".encode("utf-8"))
        assert read_trials(path) == [("target", "target", "nontarget"), ("u0", "u1", "target"),
                                     ("u2", "u3", "nontarget"), ("é", "中", "target")]

    def test_memory_is_result_plus_a_line(self, tmp_path):
        """100k lines: the list is built as the file is read, so the working
        memory beyond it stays under 1 MiB; a whole-file read would hold 3.5 MiB
        of text."""
        path = tmp_path / "t.txt"
        path.write_text("spk000_u000 spk001_u001 nontarget\n" * 100_000)
        tracemalloc.start()
        try:
            trials = read_trials(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trials) == 100_000
        work_mb = (peak - current) / 2**20
        assert work_mb < 1, f"{work_mb:.2f} MiB"
