"""Detection scoring, event merging, and metric correctness.

The PR curve is checked against an exhaustive oracle that recomputes
precision/recall (and the rational average precision) at every distinct
threshold from scratch.
"""

import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pooled, tiny_net, write_long_wav
from sawnet import bundle, cli, evaluation, frontend, models, nn, transfer
from sawnet.errors import ConfigError, DecodeError, SawnetError, TooShort, UndefinedMetric
from sawnet.evaluation import SecondScore, accuracy_f1, merge_events, pr_curve, score_stream
from sawnet.frontend import AudioClip
from sawnet.wavio import WavReader, decode_wav, encode_wav


def pr_reference(scored):
    """Exhaustive oracle: at every distinct threshold, count from scratch."""
    thresholds = sorted({s for s, _ in scored}, reverse=True)
    total_pos = sum(1 for _, l in scored if l)
    points = []
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for t in thresholds:
        tp = sum(1 for s, l in scored if s >= t and l)
        fp = sum(1 for s, l in scored if s >= t and not l)
        precision = Fraction(tp, tp + fp)
        recall = Fraction(tp, total_pos)
        points.append((t, precision, recall))
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return points, ap


def scores_from(probabilities, clip_id="clip"):
    return [SecondScore(clip_id=clip_id, second_index=i, probability=p)
            for i, p in enumerate(probabilities)]


class TestPRCurve:
    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(50)
        for trial in range(60):
            n = int(rng.integers(1, 200))
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, n), 2)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            scored = list(zip(scores.tolist(), labels.tolist()))
            curve = pr_curve(scored)
            want_points, want_ap = pr_reference(scored)
            assert len(curve.points) == len(want_points)
            for (t, p, r), (wt, wp, wr) in zip(curve.points, want_points):
                assert t == wt
                assert p == wp.numerator / wp.denominator
                assert r == wr.numerator / wr.denominator
            assert curve.average_precision == float(want_ap)

    def test_worked_three_item_example(self):
        curve = pr_curve([(0.9, 1), (0.8, 0), (0.7, 1)])
        assert curve.points == ((0.9, 1.0, 0.5), (0.8, 0.5, 0.5), (0.7, 2 / 3, 1.0))
        assert curve.average_precision == 5 / 6

    def test_perfect_ranking(self):
        scored = [(0.9, 1), (0.8, 1), (0.3, 0), (0.2, 0)]
        assert pr_curve(scored).average_precision == 1.0

    def test_all_scores_tied(self):
        curve = pr_curve([(0.5, 1), (0.5, 0), (0.5, 0), (0.5, 1)])
        assert curve.points == ((0.5, 0.5, 1.0),)
        assert curve.average_precision == 0.5

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(51)
        scored = [(round(float(s), 1), int(l))
                  for s, l in zip(rng.uniform(0, 1, 40), rng.integers(0, 2, 40))]
        if not any(l for _, l in scored):
            scored[0] = (scored[0][0], 1)
        shuffled = list(scored)
        rng.shuffle(shuffled)
        assert pr_curve(scored) == pr_curve(shuffled)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected(self, bad):
        # a NaN sorts as if it were the top score and used to give AP 0.5
        with pytest.raises(ConfigError):
            pr_curve([(0.9, 0), (bad, 1)])

    def test_zero_positives_rejected(self):
        with pytest.raises(UndefinedMetric):
            pr_curve([(0.9, 0), (0.1, 0)])
        with pytest.raises(UndefinedMetric):
            pr_curve([])

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=1, max_size=80))
    @settings(max_examples=60)
    def test_curve_invariants(self, scored):
        if not any(l for _, l in scored):
            scored = scored + [(0.5, 1)]
        curve = pr_curve(scored)
        thresholds = [t for t, _, _ in curve.points]
        recalls = [r for _, _, r in curve.points]
        precisions = [p for _, p, _ in curve.points]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))  # strictly decreasing
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))       # non-decreasing
        assert all(0 <= p <= 1 for p in precisions)
        assert 0.0 <= curve.average_precision <= 1.0
        assert recalls[-1] == 1.0


def _make_event_scanning_the_clip(clip_id, start, last, by_second):
    """The earlier peak rule: a scan of every scored second of the clip."""
    peak = max(p for s, p in by_second.items() if start <= s <= last)
    return evaluation.DetectionEvent(clip_id=clip_id, start_s=start, end_s=last + 1,
                                     peak_probability=peak)


# one clip's scores: ascending seconds, with gaps
_CLIP_SCORES = st.dictionaries(st.integers(0, 40), st.floats(0, 1), max_size=40).map(
    lambda by_second: sorted(by_second.items()))


class TestMergeEvents:
    @given(_CLIP_SCORES, _CLIP_SCORES, st.floats(0.05, 0.95), st.integers(0, 5))
    @settings(max_examples=150)
    def test_events_equal_clip_scan_rule(self, a, b, threshold, max_gap_s):
        scores = [SecondScore(clip_id, s, p) for clip_id, pairs in (("a", a), ("b", b))
                  for s, p in pairs]
        got = merge_events(scores, threshold, max_gap_s)
        with mock.patch.object(evaluation, "_make_event", _make_event_scanning_the_clip):
            assert got == merge_events(scores, threshold, max_gap_s)

    def test_single_run(self):
        events = merge_events(scores_from([0.9] * 5), threshold=0.5, max_gap_s=0)
        assert len(events) == 1
        event = events[0]
        assert (event.start_s, event.end_s, event.peak_probability) == (0, 5, 0.9)

    def test_run_split_by_dip(self):
        events = merge_events(scores_from([0.9, 0.1, 0.9]), threshold=0.5, max_gap_s=0)
        assert [(e.start_s, e.end_s) for e in events] == [(0, 1), (2, 3)]

    def test_gap_bridging(self):
        events = merge_events(scores_from([0.9, 0.1, 0.9]), threshold=0.5, max_gap_s=1)
        assert [(e.start_s, e.end_s) for e in events] == [(0, 3)]

    def test_criterion_pattern(self):
        probs = [0.9, 0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9, 0.9]
        assert len(merge_events(scores_from(probs), 0.5, max_gap_s=0)) == 2
        merged = merge_events(scores_from(probs), 0.5, max_gap_s=2)
        assert [(e.start_s, e.end_s) for e in merged] == [(0, 10)]

    def test_peak_probability_is_run_maximum(self):
        events = merge_events(scores_from([0.6, 0.95, 0.7]), threshold=0.5)
        assert events[0].peak_probability == 0.95

    def test_clips_do_not_merge_across_ids(self):
        scores = scores_from([0.9], "a") + scores_from([0.9], "b")
        events = merge_events(scores, 0.5, max_gap_s=5)
        assert [e.clip_id for e in events] == ["a", "b"]

    def test_nothing_above_threshold(self):
        assert merge_events(scores_from([0.2, 0.3]), 0.5) == []

    def test_seconds_out_of_order(self):
        scores = [SecondScore("a", 5, 0.9), SecondScore("a", 3, 0.8)]
        assert [(e.start_s, e.end_s) for e in merge_events(scores, 0.5)] == [(3, 4), (5, 6)]
        assert [(e.start_s, e.end_s) for e in merge_events(scores, 0.5, 1)] == [(3, 6)]

    def test_interleaved_clips(self):
        scores = [SecondScore("a", 0, 0.9), SecondScore("b", 0, 0.9), SecondScore("a", 1, 0.9)]
        assert [(e.clip_id, e.start_s, e.end_s) for e in merge_events(scores, 0.5)] == \
            [("a", 0, 2), ("b", 0, 1)]

    def test_duplicate_second_rejected(self):
        with pytest.raises(ConfigError, match="second 0 twice"):
            merge_events([SecondScore("a", 0, 0.9), SecondScore("a", 0, 0.2)], 0.5)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ConfigError):
            merge_events(scores_from([0.9]), threshold)

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 12), st.floats(0, 1)),
                    max_size=30),
           st.one_of(st.floats(0, 1), st.just(float("nan"))), st.integers(0, 3), st.data())
    @settings(max_examples=150)
    def test_any_order_gives_the_sorted_inputs_events(self, triples, threshold, max_gap_s,
                                                      data):
        scores = [SecondScore(*t) for t in sorted(triples)]
        shuffled = data.draw(st.permutations(scores))
        try:
            want = merge_events(scores, threshold, max_gap_s)
        except SawnetError:
            with pytest.raises(SawnetError):
                merge_events(shuffled, threshold, max_gap_s)
            return
        assert merge_events(shuffled, threshold, max_gap_s) == want

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=60),
           st.floats(0.05, 0.95))
    @settings(max_examples=80)
    def test_union_at_gap_zero_is_above_threshold_set(self, probs, threshold):
        events = merge_events(scores_from(probs), threshold, max_gap_s=0)
        covered = set()
        for e in events:
            span = set(range(e.start_s, e.end_s))
            assert not span & covered  # disjoint
            covered |= span
        want = {i for i, p in enumerate(probs) if p >= threshold}
        assert covered == want
        starts = [e.start_s for e in events]
        assert starts == sorted(starts)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=60),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=40)
    def test_threshold_monotonicity(self, probs, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        n_lo = sum(1 for p in probs if p >= lo)
        n_hi = sum(1 for p in probs if p >= hi)
        assert n_hi <= n_lo


class TestAccuracyF1:
    def test_all_correct(self):
        assert accuracy_f1([(0, 0), (1, 1), (2, 2)], 3) == (1.0, 1.0)

    def test_worked_binary_example(self):
        accuracy, macro = accuracy_f1([(1, 1), (1, 0), (0, 0), (0, 0)], 2)
        assert accuracy == 0.75
        assert macro == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-12)

    def test_constant_predictor_base_rate(self):
        preds = [(0, true) for true in range(50) for _ in range(4)]
        accuracy, macro = accuracy_f1(preds, 50)
        assert accuracy == pytest.approx(0.02, abs=1e-12)
        assert macro < 0.01  # only class 0 has nonzero F1

    def test_absent_class_counts_as_zero(self):
        accuracy, macro = accuracy_f1([(0, 0), (1, 1)], 4)
        assert accuracy == 1.0
        assert macro == 0.5  # classes 2 and 3 contribute F1 = 0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(52)
        preds = [(int(rng.integers(3)), int(rng.integers(3))) for _ in range(60)]
        shuffled = list(preds)
        rng.shuffle(shuffled)
        assert accuracy_f1(preds, 3) == accuracy_f1(shuffled, 3)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            accuracy_f1([], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            accuracy_f1([(0, 5)], 2)


@pytest.fixture(scope="module")
def zero_bundle():
    return models.init_bundle(models.build_aug_vggish(2), init="zeros")


class TestScoreStream:

    def test_five_second_clip_five_scores(self, zero_bundle):
        clip = AudioClip(np.zeros(80000, np.float32), 16000, "clip")
        scores = score_stream(zero_bundle, clip, positive_class=1)
        assert [s.second_index for s in scores] == [0, 1, 2, 3, 4]
        assert all(s.clip_id == "clip" for s in scores)

    def test_uniform_probability_for_zero_weights(self, zero_bundle):
        clip = AudioClip(np.zeros(32000, np.float32), 16000, "clip")
        for s in score_stream(zero_bundle, clip, positive_class=1):
            assert s.probability == pytest.approx(0.5, abs=1e-12)

    def test_fractional_tail_dropped(self, zero_bundle):
        clip = AudioClip(np.zeros(16000 + 8000, np.float32), 16000, "clip")
        assert len(score_stream(zero_bundle, clip, positive_class=1)) == 1

    def test_wav_and_container_score_same_seconds(self, tmp_path):
        # 298 frames fit both 2 and 3 seconds; the 47,950 samples decide: 2
        rng = np.random.default_rng(62)
        clip = AudioClip(rng.uniform(-0.3, 0.3, 47950).astype(np.float32), 16000, "c")
        net = models.init_bundle(models.build_aug_vggish(2), init="random", seed=63)
        path = tmp_path / "c.csnw"
        bundle.save_spectrogram(path, frontend.log_mel_spectrogram(clip))
        from_wav = score_stream(net, clip, positive_class=1)
        from_container = evaluation.score_spectrogram(net, bundle.load_spectrogram(path), 1)
        assert len(from_wav) == len(from_container) == 2
        np.testing.assert_allclose([s.probability for s in from_container],
                                   [s.probability for s in from_wav], atol=1e-6)

    def test_unknown_sample_count_keeps_frame_rule(self, zero_bundle):
        spec = frontend.LogMelSpectrogram(frames=np.zeros((298, 64)))
        assert len(evaluation.score_spectrogram(zero_bundle, spec, 1)) == 3

    def test_spectrogram_source_keeps_frame_rule(self, zero_bundle):
        # without num_samples, 298 frames count (298 + 2) // 100 = 3 seconds
        spec = frontend.LogMelSpectrogram(np.zeros((298, 64), np.float32), "feat")
        scores = score_stream(zero_bundle, spec, positive_class=1)
        assert [(s.clip_id, s.second_index) for s in scores] == [("feat", 0), ("feat", 1),
                                                                  ("feat", 2)]
        with pytest.raises(TooShort, match="clip 'short' is shorter than one second"):
            score_stream(zero_bundle, frontend.LogMelSpectrogram(spec.frames[:97], "short"), 1)

    def test_too_short_rejected(self, zero_bundle):
        with pytest.raises(TooShort):
            score_stream(zero_bundle, AudioClip(np.zeros(15999, np.float32), 16000), 1)

    def test_resampling_applied(self, zero_bundle):
        clip = AudioClip(np.zeros(48000 * 2, np.float32), 48000, "hi-rate")
        assert len(score_stream(zero_bundle, clip, positive_class=1)) == 2

    def test_identical_seconds_identical_probabilities(self):
        bundle = models.init_bundle(models.build_aug_vggish(2), init="random", seed=60)
        rng = np.random.default_rng(61)
        second = rng.uniform(-0.3, 0.3, 16000).astype(np.float32)
        clip = AudioClip(np.tile(second, 3), 16000, "loop")
        scores = score_stream(bundle, clip, positive_class=1)
        assert len({s.probability for s in scores}) == 1

    def test_positive_class_out_of_range(self, zero_bundle):
        clip = AudioClip(np.zeros(16000, np.float32), 16000)
        with pytest.raises(ConfigError):
            score_stream(zero_bundle, clip, positive_class=7)


def whole_clip_scores(net, clip, positive_class=1):
    """The reference: the whole clip's log-mel, cut into one patch per whole
    second, in one forward."""
    spec = frontend.log_mel_spectrogram(frontend.resample_to_16k(clip))
    patches = frontend.extract_patches(spec, 100, spec.whole_seconds)
    probabilities = nn.softmax(evaluation.forward_batch(net, patches))[:, positive_class]
    return [SecondScore(clip.source_id, s, p) for s, p in enumerate(probabilities.tolist())]


_RATES = [8000, 16000, 22050, 44100, 48000]


def _stream_case(rate, channels, seconds, seed):
    """WAV bytes of `seconds` of noisy tones, and their decoded clip."""
    frames = max(int(seconds * rate), 1)
    rng = np.random.default_rng(seed)
    t = np.arange(frames)[:, None] / rate
    raw = 0.4 * np.sin(2 * np.pi * rng.uniform(100, 3000, channels) * t)
    raw += rng.normal(0, 0.1, (frames, channels))
    data = encode_wav(raw if channels == 2 else raw[:, 0], rate, channels=channels)
    return data, decode_wav(data, source_id="c")


@pytest.fixture(scope="module")
def long_wavs(tmp_path_factory):
    """Stereo 44.1 kHz recordings of 1 and 10 minutes (10 and 106 MB), by minutes."""
    root = tmp_path_factory.mktemp("long-wavs")
    paths = {minutes: write_long_wav(root / f"{minutes}min.wav", 60 * minutes, seed=minutes)
             for minutes in (1, 10)}
    yield paths
    for path in paths.values():
        path.unlink()


def _peaks(run) -> list[int]:
    """tracemalloc peaks of ``run(1)`` and ``run(10)``."""
    peaks = []
    for minutes in (1, 10):
        tracemalloc.start()
        try:
            run(minutes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestBlockwiseScoring:
    """score_stream walks the clip in blocks; the whole-clip path is the reference."""

    @pytest.mark.parametrize("arch", ["aug", "fcn"])
    @given(rate=st.sampled_from(_RATES), channels=st.sampled_from([1, 2]),
           seconds=st.floats(1.0, 9.0), seed=st.integers(0, 2**16),
           from_file=st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_bit_identical_to_whole_clip(self, arch, aug_bundle_small, fcn_bundle_small,
                                         rate, channels, seconds, seed, from_file):
        net = aug_bundle_small if arch == "aug" else fcn_bundle_small
        data, clip = _stream_case(rate, channels, seconds, seed)
        if frontend.resampled_length(len(clip.samples), rate) < 16000:
            return
        want = whole_clip_scores(net, clip)
        if from_file:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "c.wav"
                path.write_bytes(data)
                with WavReader(path, source_id="c") as wav:
                    got = score_stream(net, wav, positive_class=1)
        else:
            got = score_stream(net, clip, positive_class=1)
        assert got == want

    @given(rate=st.sampled_from(_RATES), channels=st.sampled_from([1, 2]),
           seconds=st.floats(1.0, 9.0), seed=st.integers(0, 2**16),
           step=st.sampled_from([1, 2, 4]))
    @settings(max_examples=80, deadline=None)
    def test_same_patches_in_same_chunks(self, rate, channels, seconds, seed, step):
        # the forward is recorded, not run, so many block layouts can be tried
        _, clip = _stream_case(rate, channels, seconds, seed)
        if frontend.resampled_length(len(clip.samples), rate) < 16000:
            return
        calls = []

        def record(net, patches):
            calls.append(np.array(patches))
            return np.zeros((len(patches), 2))

        # only its plan is read, and the in-process count and pool that every bundle has
        net = mock.Mock(plan=(models.Stage(0, 1, step),), _scored=0, _pool=None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "forward_batch", record)
            score_stream(net, clip, positive_class=1)
            blocks, calls[:] = list(calls), []
            whole_clip_scores(net, clip)
        [whole] = calls
        assert [len(b) for b in blocks] == [len(c) for c in np.split(
            whole, range(step, len(whole), step))]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)

    def test_file_peak_memory_flat_in_length(self, long_wavs, monkeypatch):
        monkeypatch.setattr(evaluation, "forward_batch",
                            lambda net, patches: np.zeros((len(patches), 2)))
        net = models.init_bundle(models.build_aug_vggish(2), init="zeros")

        def detect(minutes):
            with WavReader(long_wavs[minutes]) as wav:
                assert len(score_stream(net, wav, positive_class=1)) == 60 * minutes

        peaks = _peaks(detect)
        assert peaks[1] <= 1.1 * peaks[0] + 2**20

    def test_file_peak_memory_flat_in_length_on_a_pool(self, long_wavs):
        # each run of blocks is read as it is sent, so this process holds as
        # many blocks in flight for 10 minutes as for 1
        net = pooled(tiny_net())

        def detect(minutes):
            with WavReader(long_wavs[minutes]) as wav:
                assert len(score_stream(net, wav, positive_class=1)) == 60 * minutes

        try:
            detect(1)  # the pool starts outside the measurement
            peaks = _peaks(detect)
        finally:
            net._pool.close()
        # besides the runs in flight, only the 540 more seconds' scores grow
        assert peaks[1] <= 1.1 * peaks[0] + 540 * 400 + 2**20

    def test_infer_peak_memory_flat_in_length(self, long_wavs, tmp_path, monkeypatch):
        net = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        monkeypatch.setattr(cli, "load_bundle", lambda path: net)
        monkeypatch.setattr(cli, "run_stages",
                            lambda net, x, stages: np.zeros((len(x), 2), np.float32))

        def infer(minutes):
            assert cli.main(["infer", "--model", "zeros", str(long_wavs[minutes]),
                             "--out", str(tmp_path / "rows.jsonl")]) == 0

        peaks = _peaks(infer)
        assert peaks[1] <= 1.1 * peaks[0] + 2**20

    def test_featurize_peak_memory_grows_by_its_frames(self, long_wavs, tmp_path):
        def featurize(minutes):
            assert cli.main(["featurize", str(long_wavs[minutes]),
                             "--out-dir", str(tmp_path / f"{minutes}min")]) == 0

        peaks = _peaks(featurize)
        # the 54,000 more frames the 10-minute container holds, as float32
        # and as the bytes written
        frames = 9 * 60 * 100 * frontend.NUM_MEL_BANDS * 4
        assert peaks[1] <= 1.1 * peaks[0] + 2 * frames + 2**20

    def test_extract_embeddings_peak_memory_flat_in_length(self, long_wavs, monkeypatch):
        net = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        monkeypatch.setattr(transfer, "forward_embedding",
                            lambda net, patches: np.zeros((len(patches), 256), np.float32))

        def embed(minutes):
            with WavReader(long_wavs[minutes], source_id="long") as wav:
                eset, errors = transfer.extract_embeddings(net, [(wav, 0, 1)], num_classes=2)
            assert not errors and len(eset.items) == 1

        peaks = _peaks(embed)
        # besides one block, only the [patches, 256] float32 embeddings grow:
        # 563 more patches, held in blocks and then joined
        embeddings = (625 - 62) * 256 * 4
        assert peaks[1] <= 1.1 * peaks[0] + 2 * embeddings + 2**20

    @pytest.mark.parametrize("arch", ["aug", "fcn"])
    @pytest.mark.parametrize("rate, channels", [(44100, 2), (16000, 1)])
    def test_wav_and_container_scores_identical(self, tmp_path, arch, aug_bundle_small,
                                                fcn_bundle_small, rate, channels):
        # a float32 network rounds each float64 patch to float32 on entry,
        # the rounding a feature container stores
        net = aug_bundle_small if arch == "aug" else fcn_bundle_small
        path = write_long_wav(tmp_path / "x.wav", 5.3, sample_rate=rate, channels=channels,
                              seed=rate)
        with WavReader(path, "x") as wav:
            from_wav = score_stream(net, wav, positive_class=1)
        features = tmp_path / "x.csnw"
        bundle.save_spectrogram(features, frontend.log_mel_spectrogram(
            frontend.resample_to_16k(decode_wav(path.read_bytes(), "x"))))
        from_container = evaluation.score_spectrogram(
            net, bundle.load_spectrogram(features), 1, clip_id="x")
        assert len(from_wav) == 5 and from_wav == from_container

    def test_too_short_before_any_read(self, zero_bundle):
        class Unreadable:
            sample_rate, source_id, num_samples = 44100, "short", 44080

            def read(self, lo, hi):
                raise AssertionError("read before the length check")

        with pytest.raises(TooShort):
            score_stream(zero_bundle, Unreadable(), positive_class=1)

    @pytest.mark.parametrize("position", [1000, 31800, 49500])
    def test_bad_sample_anywhere_fails_the_file(self, tmp_path, zero_bundle, position,
                                                 monkeypatch, capsys):
        # 31,800 lies between the samples two patches read, 49,500 past the
        # last whole second: neither is under a patch, both fail decode_wav,
        # and so the file fails detect, extract_embeddings, infer and featurize
        samples = np.zeros(50000, np.float32)
        samples[position] = np.nan
        path = tmp_path / "nan.wav"
        path.write_bytes(encode_wav(samples, 16000, fmt="float32"))
        with pytest.raises(DecodeError):
            decode_wav(path.read_bytes())
        with WavReader(path) as wav, pytest.raises(DecodeError):
            score_stream(zero_bundle, wav, positive_class=1)
        with WavReader(path, source_id="nan") as wav:
            eset, errors = transfer.extract_embeddings(zero_bundle, [(wav, 0, 1)], 2)
        assert not eset.items and errors[0][1].startswith("DecodeError")
        monkeypatch.setattr(cli, "load_bundle", lambda path: zero_bundle)
        assert cli.main(["infer", "--model", "zeros", str(path)]) == 2
        assert cli.main(["featurize", str(path), "--out-dir", str(tmp_path / "feat")]) == 2
        assert not (tmp_path / "feat" / "nan.csnw").exists()
        assert capsys.readouterr().err.count("nan.wav: DecodeError") == 2
