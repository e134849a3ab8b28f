"""Black-box CLI tests: exit codes, output formats, reproducibility."""

import json
import re
import struct

import numpy as np
import pytest

from conftest import random_bn_stats, run_cli, save_unfolded, sine_clip
from sawnet import cli, models, nn, transfer
from sawnet.bundle import (load_bundle, load_spectrogram, read_container, save_bundle,
                           save_spectrogram, write_container)
from sawnet.evaluation import score_spectrogram
from sawnet.frontend import (LogMelSpectrogram, extract_patches, log_mel_spectrogram,
                             resample_to_16k)
from sawnet.wavio import decode_wav, encode_wav


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-models")
    zero2 = root / "zero2.csnw"
    save_bundle(models.init_bundle(models.build_aug_vggish(2), init="zeros"), zero2)
    rand4 = root / "rand4.csnw"
    save_bundle(models.init_bundle(models.build_aug_vggish(4), init="random", seed=77), rand4)
    return root


@pytest.fixture(scope="module")
def backbone(model_dir):
    """An aug_vggish bundle: its 256-d embeddings are those of `cache_path`."""
    return model_dir / "rand4.csnw"


@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-wavs")
    clip = sine_clip(440.0, 2.0)
    (root / "tone.wav").write_bytes(encode_wav(clip.samples, 16000))
    (root / "silent10.wav").write_bytes(encode_wav(np.zeros(160000), 16000))
    return root


def separable_set(dim: int) -> transfer.EmbeddingSet:
    """80 clips of 4 classes in 5 folds, each class a `dim`-d cluster."""
    rng = np.random.default_rng(70)
    items = []
    for label in range(4):
        for i in range(20):
            vec = rng.normal(0, 0.1, dim)
            vec[label] += 2.0
            items.append(transfer.EmbeddingItem(f"c{label}{i:02d}", (i % 5) + 1, label, vec))
    return transfer.EmbeddingSet(items=tuple(items), dim=dim, num_classes=4)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    """A cache of 256-d embeddings, aug_vggish's width, so `train-head` takes
    it with `model_dir`'s aug_vggish bundles."""
    path = tmp_path_factory.mktemp("cli-cache") / "cache.csnw"
    transfer.save_embeddings(path, separable_set(256))
    return path


class TestUsageErrors:
    def test_no_arguments(self):
        assert run_cli().returncode == 64

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 64

    def test_threshold_above_one(self, model_dir, wav_dir):
        result = run_cli("detect", "--model", model_dir / "zero2.csnw",
                         "--threshold", "1.1", wav_dir / "silent10.wav")
        assert result.returncode == 64

    def test_missing_required_flag(self):
        assert run_cli("info").returncode == 64


class TestFeaturize:
    def test_single_wav(self, tmp_path, wav_dir):
        out = tmp_path / "feat"
        result = run_cli("featurize", wav_dir / "tone.wav", "--out-dir", out)
        assert result.returncode == 0
        assert (out / "tone.csnw").is_file()
        manifest = json.loads((out / "featurize_manifest.json").read_text())
        assert manifest["command"] == "featurize"
        assert "timestamp_utc" in manifest

    def test_empty_input_list_warns(self, tmp_path):
        result = run_cli("featurize", "--out-dir", tmp_path / "none")
        assert result.returncode == 0
        assert "no input" in result.stderr

    def test_partial_failure_exits_2(self, tmp_path, wav_dir):
        bad = tmp_path / "broken.wav"
        bad.write_bytes(b"RIFFgarbage!")
        out = tmp_path / "feat2"
        result = run_cli("featurize", wav_dir / "tone.wav", bad, "--out-dir", out)
        assert result.returncode == 2
        assert (out / "tone.csnw").is_file()
        assert not (out / "broken.csnw").exists()
        assert "broken.wav" in result.stderr

    def test_csv_format(self, tmp_path, wav_dir):
        out = tmp_path / "featcsv"
        result = run_cli("featurize", wav_dir / "tone.wav", "--out-dir", out,
                         "--format", "csv")
        assert result.returncode == 0
        rows = (out / "tone.csv").read_text().strip().splitlines()
        assert len(rows) == 198  # 2 s -> 198 frames
        assert len(rows[0].split(",")) == 64

    def test_repeated_stem_fails_the_later_input(self, tmp_path):
        # a/x.wav (2 s) and b/x.wav (3 s) would both write out/x.csnw
        for name, seconds in (("a", 2), ("b", 3)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "x.wav").write_bytes(encode_wav(
                np.zeros(16000 * seconds, np.float32), 16000))
        out = tmp_path / "out"
        result = run_cli("featurize", tmp_path / "a", tmp_path / "b", "--out-dir", out)
        assert result.returncode == 2
        assert (f"featurize: {tmp_path / 'b' / 'x.wav'}: ConfigError: {out / 'x.csnw'} is "
                f"already written from {tmp_path / 'a' / 'x.wav'}") in result.stderr
        assert load_spectrogram(out / "x.csnw").frames.shape[0] == 198  # the 2 s clip's
        manifest = json.loads((out / "featurize_manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "x.csnw")]
        assert (manifest["files_ok"], manifest["files_failed"]) == (1, 1)
        assert sorted(p.name for p in out.iterdir()) == ["featurize_manifest.json", "x.csnw"]

    def test_directory_input(self, tmp_path, wav_dir):
        out = tmp_path / "featdir"
        result = run_cli("featurize", wav_dir, "--out-dir", out)
        assert result.returncode == 0
        assert (out / "tone.csnw").is_file() and (out / "silent10.csnw").is_file()


class TestInfo:
    """`info` shows the network that runs: each batch norm folded into its conv."""

    def test_reports_parameter_count(self, tmp_path):
        # 4,647,346 stored, less the 2 * 1,728 batch-norm gammas and betas
        path = tmp_path / "aug50.csnw"
        save_bundle(models.init_bundle(models.build_aug_vggish(50), init="zeros"), path)
        result = run_cli("info", "--model", path)
        assert result.returncode == 0
        assert "trainable_params: 4643890" in result.stdout
        assert "arch_id: aug_vggish" in result.stdout

    def test_fcn_parameter_count(self, tmp_path):
        # 18,716,338 stored, less the 2 * 3,776 batch-norm gammas and betas
        path = tmp_path / "fcn50.csnw"
        save_bundle(models.init_bundle(models.build_fcn_vggish(50), init="zeros"), path)
        result = run_cli("info", "--model", path)
        assert "trainable_params: 18708786" in result.stdout

    def test_compute_dtype_and_weight_bytes(self, tmp_path):
        # a loaded bundle holds its weights as the file stores them
        path = tmp_path / "fcn3.csnw"
        save_bundle(models.init_bundle(models.build_fcn_vggish(3), init="zeros"), path)
        header, _ = read_container(path)
        lines = run_cli("info", "--model", path).stdout.splitlines()
        assert "compute_dtype: float32" in lines
        assert f"weight_bytes: {header['payload_bytes']}" in lines

    def test_layer_lines(self, tmp_path, model_dir):
        aug = run_cli("info", "--model", model_dir / "rand4.csnw").stdout.splitlines()
        assert "  conv1    conv            1->64 3x3 +relu" in aug
        assert "  pool1    maxpool         " in aug
        assert "  gap      global_avg_pool " in aug
        assert "  fc1      dense           512->256 +relu" in aug
        assert "  head     dense           256->4" in aug
        # a file in the stored conv+BN layout shows the same running network
        spec = models.build_fcn_vggish(2)
        path = save_unfolded(tmp_path / "unfolded.csnw", spec, random_bn_stats(spec))
        fcn = run_cli("info", "--model", path).stdout.splitlines()
        assert "  conv8    conv            1024->1024 3x3 +relu" in fcn
        assert "  clf      conv            1024->2 1x1" in fcn
        assert "trainable_params: 18659586" in fcn
        for lines in (aug, fcn):
            assert not any("batchnorm" in line or line.startswith("folded") for line in lines)

    def test_plan_lines(self, tmp_path, model_dir):
        aug = run_cli("info", "--model", model_dir / "rand4.csnw").stdout.splitlines()
        assert [line for line in aug if line.startswith("stage:")] == ["stage: conv1..head x1"]
        path = tmp_path / "fcn3.csnw"
        save_bundle(models.init_bundle(models.build_fcn_vggish(3), init="zeros"), path)
        fcn = run_cli("info", "--model", path).stdout.splitlines()
        assert [line for line in fcn if line.startswith("stage:")] == \
            ["stage: conv1..pool5 x4", "stage: conv7..gap x25"]

    def test_truncated_file_exits_2(self, tmp_path, model_dir):
        broken = tmp_path / "trunc.csnw"
        broken.write_bytes((model_dir / "zero2.csnw").read_bytes()[:40])
        result = run_cli("info", "--model", broken)
        assert result.returncode == 2
        assert "FormatError" in result.stderr


class TestDetect:
    def test_uniform_scores_below_threshold(self, model_dir, wav_dir):
        result = run_cli("detect", "--model", model_dir / "zero2.csnw",
                         "--threshold", "0.6", wav_dir / "silent10.wav")
        assert result.returncode == 0
        assert result.stdout.strip() == ""

    def test_uniform_scores_above_threshold(self, model_dir, wav_dir):
        result = run_cli("detect", "--model", model_dir / "zero2.csnw",
                         "--threshold", "0.4", wav_dir / "silent10.wav")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event == {"clip_id": "silent10", "start_s": 0, "end_s": 10,
                         "peak_prob": 0.5}

    def test_probabilities_printed_at_6dp(self, model_dir, wav_dir):
        result = run_cli("detect", "--model", model_dir / "zero2.csnw",
                         "--threshold", "0.4", wav_dir / "silent10.wav")
        assert '"peak_prob": 0.500000' in result.stdout

    def test_wav_and_container_paths_agree(self, tmp_path, model_dir, wav_dir):
        feat = tmp_path / "feat"
        assert run_cli("featurize", wav_dir / "silent10.wav", "--out-dir", feat).returncode == 0
        from_wav = run_cli("detect", "--model", model_dir / "zero2.csnw",
                           "--threshold", "0.4", wav_dir / "silent10.wav")
        from_feat = run_cli("detect", "--model", model_dir / "zero2.csnw",
                            "--threshold", "0.4", feat / "silent10.csnw")
        assert from_wav.stdout == from_feat.stdout

    def test_manifest_written_with_out(self, tmp_path, model_dir, wav_dir):
        out = tmp_path / "events.jsonl"
        result = run_cli("detect", "--model", model_dir / "zero2.csnw",
                         "--threshold", "0.4", "--out", out, wav_dir / "silent10.wav")
        assert result.returncode == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["config"]["threshold"] == 0.4


@pytest.fixture()
def mixed_inputs(tmp_path, wav_dir):
    """Two good inputs around a corrupt WAV and a missing file."""
    broken = tmp_path / "broken.wav"
    broken.write_bytes(b"RIFF" + bytes(40))
    return [wav_dir / "silent10.wav", broken, tmp_path / "missing.wav", wav_dir / "tone.wav"]


class TestPerFileFailures:
    def test_infer_reports_bad_files_and_keeps_good_rows(self, model_dir, mixed_inputs):
        result = run_cli("infer", "--model", model_dir / "rand4.csnw", *mixed_inputs)
        assert result.returncode == 2
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert [r["clip_id"] for r in rows] == ["silent10", "tone"]
        assert "broken.wav: DecodeError" in result.stderr
        assert "missing.wav: FileNotFoundError" in result.stderr

    def test_detect_reports_bad_files_and_keeps_good_events(self, tmp_path, model_dir,
                                                            mixed_inputs):
        out = tmp_path / "events.jsonl"
        result = run_cli("detect", "--model", model_dir / "zero2.csnw", "--threshold", "0.4",
                         "--out", out, *mixed_inputs)
        assert result.returncode == 2
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert [e["clip_id"] for e in events] == ["silent10", "tone"]
        assert "broken.wav: DecodeError" in result.stderr
        assert "missing.wav: FileNotFoundError" in result.stderr
        assert out.with_suffix(".manifest.json").exists()

    def test_detect_rejects_bad_positive_class_once(self, tmp_path, model_dir,
                                                    mixed_inputs):
        out = tmp_path / "events.jsonl"
        result = run_cli("detect", "--model", model_dir / "zero2.csnw", "--positive-class",
                         "2", "--out", out, *mixed_inputs)
        assert result.returncode == 2
        assert result.stderr.count("ConfigError") == 1
        assert "positive_class 2 out of range for 2 classes" in result.stderr
        assert not out.exists()


    def test_infer_reports_bad_spectrogram_header(self, tmp_path, model_dir):
        good, bad = tmp_path / "good.csnw", tmp_path / "bad.csnw"
        spec = log_mel_spectrogram(sine_clip(440.0, 2.0, source_id="tone"))
        save_spectrogram(good, spec)
        save_spectrogram(bad, spec)
        header, tensors = read_container(bad)
        header["frame_hop_s"] = "abc"
        del header["tensors"], header["payload_bytes"]
        write_container(bad, header, tensors)
        result = run_cli("infer", "--model", model_dir / "rand4.csnw", good, bad)
        assert result.returncode == 2
        assert [json.loads(line)["clip_id"] for line in result.stdout.splitlines()] == ["tone"]
        assert "bad.csnw: ValidationError: invalid frame_hop_s 'abc'" in result.stderr


    def test_infer_reports_boolean_shape_and_keeps_good_rows(self, tmp_path, model_dir):
        # JSON true is not a size: numpy's reshape raised TypeError on [200, true]
        save_spectrogram(tmp_path / "good.csnw",
                         log_mel_spectrogram(sine_clip(440.0, 2.0, source_id="tone")))
        header = {"kind": "logmel", "payload_bytes": 800, "tensors": [
            {"name": "logmel", "shape": [200, True], "dtype": "f32", "offset": 0}]}
        blob = json.dumps(header).encode()
        (tmp_path / "bool.csnw").write_bytes(
            b"CSNW" + struct.pack("<IQ", 1, len(blob)) + blob + bytes(800))
        result = run_cli("infer", "--model", model_dir / "rand4.csnw", tmp_path)
        assert result.returncode == 2
        assert [json.loads(line)["clip_id"] for line in result.stdout.splitlines()] == ["tone"]
        assert "bool.csnw: FormatError: malformed manifest entry" in result.stderr

    @pytest.mark.parametrize("command", ["infer", "detect"])
    def test_non_finite_spectrogram_reported(self, tmp_path, model_dir, command):
        # one NaN cell printed "probs": [nan, nan] (not JSON) from infer, and
        # detect at threshold 0 dropped its second without a word
        spec = log_mel_spectrogram(sine_clip(440.0, 3.0, source_id="tone"))
        save_spectrogram(tmp_path / "good.csnw", spec)
        frames = spec.frames.copy()
        frames[150, 7] = np.nan
        save_spectrogram(tmp_path / "nan.csnw", LogMelSpectrogram(frames, "nan", spec.num_samples))
        extra = ("--threshold", "0.0") if command == "detect" else ()
        result = run_cli(command, "--model", model_dir / "rand4.csnw", *extra, tmp_path)
        assert result.returncode == 2
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert rows and {r["clip_id"] for r in rows} == {"tone"}
        assert "nan.csnw: ValidationError: logmel tensor has non-finite values" in result.stderr

    def test_detect_drops_a_file_that_fails_mid_stream(self, tmp_path, model_dir, wav_dir):
        samples = np.zeros(6 * 16000, np.float32)
        samples[5 * 16000 + 8000] = np.nan  # past the last second's patch
        late = tmp_path / "late_nan.wav"
        late.write_bytes(encode_wav(samples, 16000, fmt="float32"))
        out = tmp_path / "events.jsonl"
        result = run_cli("detect", "--model", model_dir / "zero2.csnw", "--threshold", "0.4",
                         "--out", out, late, wav_dir / "tone.wav")
        assert result.returncode == 2
        assert [json.loads(line)["clip_id"] for line in out.read_text().splitlines()] == ["tone"]
        assert "late_nan.wav: DecodeError: payload contains non-finite samples" in result.stderr

    @pytest.mark.parametrize("command", ["infer", "detect"])
    def test_mixed_kinds_give_each_file_its_own_lines(self, tmp_path, model_dir, wav_dir,
                                                       command):
        # a WAV, a feature container that records no source_id (so it is
        # named by its stem, as the WAV is) and a bad file, read through one
        # input path
        (tmp_path / "a_tone.wav").write_bytes((wav_dir / "tone.wav").read_bytes())
        save_spectrogram(tmp_path / "b_feat.csnw",
                         log_mel_spectrogram(sine_clip(880.0, 3.0, source_id="")))
        (tmp_path / "c_bad.csnw").write_bytes(b"CSNW" + bytes(8))
        inputs = sorted(tmp_path.iterdir())
        flags = ["--model", model_dir / "rand4.csnw"]
        if command == "detect":
            flags += ["--threshold", "0"]
        together = run_cli(command, *flags, *inputs)
        alone = [run_cli(command, *flags, path) for path in inputs]
        assert together.returncode == 2 and [r.returncode for r in alone] == [0, 0, 2]
        assert together.stdout == "".join(r.stdout for r in alone)
        assert [json.loads(line)["clip_id"] for line in together.stdout.splitlines()] == \
            ["a_tone", "b_feat"]
        assert together.stderr == alone[2].stderr
        assert "c_bad.csnw: FormatError" in together.stderr


class TestManifestCounts:
    def test_counts_with_bad_files_among_good(self, tmp_path, model_dir, mixed_inputs):
        runs = {
            "featurize": ["featurize", *mixed_inputs, "--out-dir", tmp_path / "feat"],
            "infer": ["infer", "--model", model_dir / "rand4.csnw", *mixed_inputs,
                      "--out", tmp_path / "rows.jsonl"],
            "detect": ["detect", "--model", model_dir / "zero2.csnw", *mixed_inputs,
                       "--out", tmp_path / "events.jsonl"],
        }
        manifests = {"featurize": tmp_path / "feat" / "featurize_manifest.json",
                     "infer": tmp_path / "rows.manifest.json",
                     "detect": tmp_path / "events.manifest.json"}
        for command, args in runs.items():
            texts = []
            for _ in range(2):
                assert run_cli(*args).returncode == 2
                texts.append(manifests[command].read_text())
            manifest = json.loads(texts[0])
            assert (manifest["files_ok"], manifest["files_failed"]) == (2, 2), command
            assert manifest.get("compute_dtype") == (None if command == "featurize"
                                                     else "float32"), command
            stable = [re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": "X"', t)
                      for t in texts]
            assert stable[0] == stable[1] and texts[0].count("timestamp_utc") == 1

    def test_counts_all_good(self, tmp_path, model_dir, wav_dir):
        out = tmp_path / "events.jsonl"
        assert run_cli("detect", "--model", model_dir / "zero2.csnw", "--out", out,
                       wav_dir / "tone.wav").returncode == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert (manifest["files_ok"], manifest["files_failed"]) == (1, 0)


def _calibrate_last_layer(net: models.WeightBundle, specs) -> None:
    """Rescale the layer that makes the logits so that P(class 1) spreads over
    (0, 1) on the seconds of `specs`, centred on their median."""
    patches = np.concatenate([extract_patches(spec, 100, spec.whole_seconds) for spec in specs])
    diff = np.diff(models.forward_batch(net, patches), axis=1)[:, 0]
    layer = next(l.name for l in reversed(net.spec.layers) if l.kind in ("dense", "conv"))
    alpha = 3.0 / diff.std()
    for key in [k for k in net.params if k.startswith(f"{layer}/")]:
        net.params[key] = np.asarray(net.params[key]) * alpha
    bias = np.array(net.params[f"{layer}/bias"])
    bias[1] -= alpha * np.median(diff)
    net.params[f"{layer}/bias"] = bias
    net.validate()


class TestDetectPathIdentity:
    """`detect` and `infer` on a WAV (read in blocks) and on its featurized
    container agree."""

    @pytest.mark.parametrize("arch", ["aug", "fcn"])
    def test_wav_and_container_events_byte_identical(self, tmp_path, arch):
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        specs = []
        for rate, channels in ((44100, 2), (16000, 1)):
            rng = np.random.default_rng(rate)
            t = np.arange(int(7.6 * rate))[:, None] / rate
            gate = np.sin(2 * np.pi * 0.15 * t) > 0
            raw = 0.3 * np.sin(2 * np.pi * rng.uniform(200, 3000, channels) * t) * gate
            raw += rng.normal(0, 0.05, raw.shape)
            data = encode_wav(raw if channels == 2 else raw[:, 0], rate, channels=channels)
            (wavs / f"clip{rate}.wav").write_bytes(data)
            specs.append(log_mel_spectrogram(resample_to_16k(decode_wav(data))))
        build = models.build_aug_vggish if arch == "aug" else models.build_fcn_vggish
        net = models.WeightBundle(build(2), random_bn_stats(build(2), seed=92, init_seed=91))
        _calibrate_last_layer(net, specs)
        model = tmp_path / "model.csnw"
        save_bundle(net, model)
        # a threshold in the widest gap between per-second probabilities in
        # (0.1, 0.9), far from any of them
        probs = np.sort([s.probability for spec in specs
                         for s in score_spectrogram(load_bundle(model), spec, 1)])
        probs = probs[(probs > 0.1) & (probs < 0.9)]
        gap = int(np.argmax(np.diff(probs)))
        threshold = f"{(probs[gap] + probs[gap + 1]) / 2:.6f}"
        assert run_cli("featurize", wavs, "--out-dir", tmp_path / "feat").returncode == 0
        outs, rows = [], []
        for name, inputs in (("wav", sorted(wavs.glob("*.wav"))),
                             ("feat", sorted((tmp_path / "feat").glob("*.csnw")))):
            outs.append(tmp_path / f"{name}.jsonl")
            assert run_cli("detect", "--model", model, "--threshold", threshold, "--gap", "0",
                           "--out", outs[-1], *inputs).returncode == 0
            rows.append(run_cli("infer", "--model", model, *inputs))
            assert rows[-1].returncode == 0
        events = outs[0].read_bytes()
        assert events == outs[1].read_bytes()
        assert {json.loads(line)["clip_id"] for line in events.splitlines()} == \
            {"clip44100", "clip16000"}
        # infer reads the WAVs in blocks too, and gives the containers' rows
        assert rows[0].stdout == rows[1].stdout
        assert [json.loads(line)["clip_id"] for line in rows[0].stdout.splitlines()] == \
            ["clip16000", "clip44100"]


class TestInfer:
    def test_json_lines_output(self, model_dir, wav_dir):
        result = run_cli("infer", "--model", model_dir / "rand4.csnw", wav_dir / "tone.wav")
        assert result.returncode == 0
        record = json.loads(result.stdout.strip())
        assert record["clip_id"] == "tone"
        assert len(record["probs"]) == 4
        assert abs(sum(record["probs"]) - 1.0) < 1e-4
        assert record["predicted"] == int(np.argmax(record["probs"]))


    def test_inputs_share_calls_and_print_what_each_prints_alone(self, tmp_path):
        # fcn_vggish runs its tail, its plan's last stage, on 25 patches at a
        # time, gathered across inputs; in this order the calls hold 10 + 15,
        # then 5 + 20, then 10 + 9 + 6 patches, the last 6 from a WAV that
        # fails at its third block, and the file's rows are dropped from a
        # call they shared
        rng = np.random.default_rng(93)
        inputs, specs = [], []
        for name, patches in (("a10", 10), ("c20", 20), ("d30", 30)):
            spec = LogMelSpectrogram(rng.normal(-4, 2, (96 * patches, 64)).astype(np.float32),
                                     name)
            save_spectrogram(tmp_path / f"{name}.csnw", spec)
            inputs.append(tmp_path / f"{name}.csnw")
            specs.append(spec)
        corrupt = tmp_path / "b_corrupt.csnw"
        corrupt.write_bytes((tmp_path / "a10.csnw").read_bytes()[:100])
        good = 0.3 * np.sin(2 * np.pi * 700 * np.arange(9 * 16000) / 16000)
        good += rng.normal(0, 0.05, good.shape)
        (tmp_path / "e_good.wav").write_bytes(encode_wav(good, 16000))
        specs.append(log_mel_spectrogram(decode_wav((tmp_path / "e_good.wav").read_bytes())))
        late = np.tile(good.astype(np.float32), 2)
        late[10 * 16000] = np.nan  # in the third block of 4 patches
        (tmp_path / "f_late_nan.wav").write_bytes(encode_wav(late, 16000, fmt="float32"))
        inputs += [corrupt, tmp_path / "e_good.wav", tmp_path / "f_late_nan.wav"]
        net = models.WeightBundle(models.build_fcn_vggish(3),
                                  random_bn_stats(models.build_fcn_vggish(3), seed=95,
                                                  init_seed=94))
        assert [stage.per_call for stage in net.plan] == [4, 25]
        _calibrate_last_layer(net, specs)
        model = tmp_path / "fcn.csnw"
        save_bundle(net, model)

        out = tmp_path / "rows.jsonl"
        together = run_cli("infer", "--model", model, "--out", out, *inputs)
        alone = [run_cli("infer", "--model", model, path) for path in sorted(inputs)]
        assert together.returncode == 2
        assert out.read_text() == "".join(r.stdout for r in alone)
        assert [json.loads(line)["clip_id"] for line in out.read_text().splitlines()] == \
            ["a10", "c20", "d30", "e_good"]
        assert together.stderr.splitlines() == [r.stderr.strip() for r in alone if r.stderr]
        assert "b_corrupt.csnw: FormatError" in together.stderr
        assert "f_late_nan.wav: DecodeError: payload contains non-finite samples" \
            in together.stderr
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert (manifest["files_ok"], manifest["files_failed"]) == (4, 2)

    def test_first_stage_runs_per_input(self, tmp_path, monkeypatch, capsys):
        # each input's blocks of 4 patches run to pool5 as they are read; the
        # 16 pool5 maps then share one tail call
        model = tmp_path / "fcn.csnw"
        save_bundle(models.init_bundle(models.build_fcn_vggish(2), init="random", seed=5), model)
        inputs = []
        for seed, (name, patches) in enumerate(zip("abcdef", (1, 1, 2, 3, 4, 5))):
            frames = np.random.default_rng(seed).normal(-4, 2, (96 * patches, 64))
            save_spectrogram(tmp_path / f"{name}.csnw", LogMelSpectrogram(frames, name))
            inputs.append(str(tmp_path / f"{name}.csnw"))
        calls, tails = [], []

        def record(bundle, x, stop_after=None, _run=models.run_layers):
            calls.append((len(x), stop_after))
            return _run(bundle, x, stop_after)

        def conv(x, p, _conv=nn.conv2d_same):
            if p.out_channels == 1024 and p.in_channels == 512:  # conv7
                tails.append(len(x))
            return _conv(x, p)

        monkeypatch.setattr(models, "run_layers", record)
        monkeypatch.setattr(nn, "conv2d_same", conv)
        assert cli.main(["infer", "--model", str(model), *inputs]) == 0
        assert calls == [(n, "pool5") for n in (1, 1, 2, 3, 4, 4, 1)]
        assert tails == [16]
        assert [json.loads(line)["clip_id"] for line in capsys.readouterr().out.splitlines()] \
            == list("abcdef")


class TestTrainAndCV:
    """`train-head` gets the `backbone` fixture, outside `tmp_path`, so each
    test's directory holds only what the command wrote."""

    def test_train_head_writes_container(self, tmp_path, cache_path, backbone):
        # the output is the backbone with the trained head as its classifier
        out = tmp_path / "head.csnw"
        result = run_cli("train-head", "--embeddings", cache_path, "--model", backbone,
                         "--out", out, "--epochs", "10", "--lr", "0.1")
        assert result.returncode == 0
        header, tensors = read_container(out)
        assert header["kind"] == "weights"
        assert tensors["head/weights"].shape == (4, 256)
        assert out.with_suffix(".manifest.json").is_file()
        tuned, model = load_bundle(out), load_bundle(backbone)
        assert tuned.spec.num_classes == transfer.load_embeddings(cache_path).num_classes == 4
        assert set(tuned.params) == set(model.params)
        for key, arr in model.params.items():
            if not key.startswith("head/"):
                assert np.array_equal(tuned.params[key], arr)
        head = transfer.train_head(transfer.load_embeddings(cache_path),
                                   transfer.TrainConfig(learning_rate=0.1, epochs=10))
        assert np.array_equal(tuned.params["head/weights"], head.weights)
        assert np.array_equal(tuned.params["head/bias"], head.bias)
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["config"]["model"] == str(backbone)
        assert sorted(manifest["inputs"]) == sorted([str(cache_path), str(backbone)])

    def test_train_head_byte_reproducible(self, tmp_path, cache_path, backbone):
        outs = [tmp_path / "h1.csnw", tmp_path / "h2.csnw"]
        for out in outs:
            assert run_cli("train-head", "--embeddings", cache_path, "--model", backbone,
                           "--out", out, "--epochs", "5", "--seed", "7").returncode == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flag", ["--lr", "--l2"])
    def test_train_head_rejects_non_finite_settings(self, tmp_path, cache_path, backbone, flag):
        out = tmp_path / "head.csnw"
        result = run_cli("train-head", "--embeddings", cache_path,
                         "--model", backbone, "--out", out, flag, "nan")
        assert result.returncode == 2
        assert "ConfigError" in result.stderr
        assert not out.exists() and not out.with_suffix(".manifest.json").exists()

    def test_eval_cv_report(self, tmp_path, cache_path):
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        result = run_cli("eval-cv", "--embeddings", cache_path, "--out", out,
                         "--csv", csv_out, "--epochs", "20", "--lr", "0.1")
        assert result.returncode == 0
        report = json.loads(out.read_text())
        assert report["mean_accuracy"] == 1.0
        assert len(report["folds"]) == 5
        assert report["seed"] == 42
        rows = csv_out.read_text().strip().splitlines()
        assert rows[0] == "fold,accuracy,macro_f1,num_clips"
        assert len(rows) == 7 and rows[-1].startswith("mean,")

    def test_reports_identical_apart_from_timestamp(self, tmp_path, cache_path, backbone):
        # the eval-cv report and the train-head manifest, each from two runs
        for command, out, report, extra in (
                ("eval-cv", "r{}.json", "r{}.json", ()),
                ("train-head", "h{}.csnw", "h{}.manifest.json", ("--model", backbone))):
            for i in (1, 2):
                assert run_cli(command, "--embeddings", cache_path, *extra, "--out",
                               tmp_path / out.format(i), "--epochs", "5").returncode == 0
            texts = [re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": "X"',
                            (tmp_path / report.format(i)).read_text()) for i in (1, 2)]
            assert texts[0] == texts[1]
            assert json.loads(texts[0])["head_dtype"] == "float32"

    @pytest.mark.parametrize("meta", [5, {"fold": "x", "label": 0}])
    def test_malformed_clip_metadata_exits_2(self, tmp_path, backbone, meta):
        cache = tmp_path / "cache.csnw"
        write_container(cache, {"kind": "embeddings", "dim": 256, "num_classes": 2,
                                "clips": {"a": meta}}, {"a": np.zeros(256)})
        out = tmp_path / "out.csnw"
        for command, extra in (("train-head", ("--model", backbone)),
                               ("eval-cv", ())):
            result = run_cli(command, "--embeddings", cache, *extra, "--out", out)
            assert result.returncode == 2
            assert "ValidationError: clip 'a'" in result.stderr and not result.stdout
            assert sorted(tmp_path.iterdir()) == [cache]

    def test_non_finite_embedding_exits_2_before_training(self, tmp_path, backbone):
        cache = tmp_path / "cache.csnw"
        clips = {f"c{i}": {"fold": i % 2 + 1, "label": i % 2} for i in range(4)}
        vectors = {c: np.full(256, float(i)) for i, c in enumerate(clips)}
        vectors["c2"][1] = np.nan
        write_container(cache, {"kind": "embeddings", "dim": 256, "num_classes": 2,
                                "clips": clips}, vectors)
        for command, out, extra in (
                ("train-head", "head.csnw", ("--model", backbone)),
                ("eval-cv", "report.json", ())):
            result = run_cli(command, "--embeddings", cache, *extra, "--out", tmp_path / out,
                             "--folds" if command == "eval-cv" else "--epochs", "2")
            assert result.returncode == 2
            assert "ValidationError: clip 'c2': embedding has non-finite values" \
                in result.stderr and not result.stdout
            assert sorted(tmp_path.iterdir()) == [cache]

    @pytest.mark.parametrize("arch", ["aug", "fcn"])
    def test_infer_on_trained_bundle_gives_evaluate_head(self, tmp_path, backbone, arch):
        # a single-patch clip's mean embedding is its one patch's, so `infer`
        # on the written bundle prints the head's own probabilities
        if arch == "fcn":
            backbone = tmp_path / "fcn.csnw"
            save_bundle(models.init_bundle(models.build_fcn_vggish(2), init="random", seed=5),
                        backbone)
        rng = np.random.default_rng(41)
        t = np.arange(16000) / 16000
        wavs, clips = tmp_path / "wavs", []
        wavs.mkdir()
        for i in range(20):
            label = i % 3
            samples = 0.3 * np.sin(2 * np.pi * (300 + 900 * label) * t)
            data = encode_wav(samples + rng.normal(0, 0.05, t.shape), 16000)
            (wavs / f"clip{i:02d}.wav").write_bytes(data)
            clips.append((decode_wav(data, f"clip{i:02d}"), label, i % 5 + 1))
        eset, errors = transfer.extract_embeddings(load_bundle(backbone), clips)
        assert errors == [] and eset.num_classes == 3
        cache, tuned = tmp_path / "cache.csnw", tmp_path / "tuned.csnw"
        transfer.save_embeddings(cache, eset)
        assert run_cli("train-head", "--embeddings", cache, "--model", backbone, "--out", tuned,
                       "--epochs", "20", "--lr", "0.1").returncode == 0
        assert load_bundle(tuned).spec.num_classes == 3
        result = run_cli("infer", "--model", tuned, wavs)
        assert result.returncode == 0
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        loaded = transfer.load_embeddings(cache)
        head = transfer.train_head(loaded, transfer.TrainConfig(learning_rate=0.1, epochs=20))
        _, _, scores = transfer.evaluate_head(head, loaded)
        assert [r["clip_id"] for r in rows] == [s.clip_id for s in scores]
        for row, score in zip(rows, scores):
            np.testing.assert_allclose(row["probs"], score.probabilities, rtol=0, atol=1e-5)
            assert row["predicted"] == score.predicted

    def test_embedding_dim_mismatch_exits_2_before_training(self, tmp_path, backbone,
                                                            monkeypatch, capsys):
        # 16-d embeddings cannot feed aug_vggish's 256-d head
        cache = tmp_path / "cache.csnw"
        transfer.save_embeddings(cache, separable_set(16))
        trained = []
        monkeypatch.setattr(cli, "train_head", lambda *a: trained.append(a))
        out = tmp_path / "tuned.csnw"
        assert cli.main(["train-head", "--embeddings", str(cache),
                         "--model", str(backbone), "--out", str(out)]) == 2
        assert "ValidationError: 16-d embeddings for a 256-d model" in capsys.readouterr().err
        assert trained == []
        assert sorted(tmp_path.iterdir()) == [cache]

    def test_one_class_cache_exits_2_before_training(self, tmp_path, backbone, monkeypatch,
                                                     capsys):
        # every clip has label 0: no head can be trained on it
        cache = tmp_path / "cache.csnw"
        items = tuple(transfer.EmbeddingItem(f"c{i}", i % 5 + 1, 0, np.full(256, float(i)))
                      for i in range(10))
        transfer.save_embeddings(cache, transfer.EmbeddingSet(items, dim=256, num_classes=1))

        def trained(*args):
            raise AssertionError("a head was trained")

        monkeypatch.setattr(transfer, "_sgd", trained)
        monkeypatch.setattr(transfer, "_worker_heads", trained)
        for command, extra in (("train-head", ["--model", str(backbone)]), ("eval-cv", [])):
            assert cli.main([command, "--embeddings", str(cache), *extra,
                             "--out", str(tmp_path / "out.json")]) == 2
            captured = capsys.readouterr()
            assert "ConfigError: a head needs num_classes >= 2, got 1" in captured.err
            assert not captured.out
        assert sorted(tmp_path.iterdir()) == [cache]

    def test_negative_seed_exits_2(self, tmp_path, cache_path):
        out = tmp_path / "report.json"
        result = run_cli("eval-cv", "--embeddings", cache_path, "--out", out, "--seed", "-1")
        assert result.returncode == 2
        assert "ConfigError: seed" in result.stderr and not result.stdout
        assert list(tmp_path.iterdir()) == []

    def test_missing_fold_exits_2(self, tmp_path, cache_path):
        eset = transfer.load_embeddings(cache_path)
        partial = eset.subset(lambda i: i.fold != 5)
        partial_path = tmp_path / "partial.csnw"
        transfer.save_embeddings(partial_path, partial)
        result = run_cli("eval-cv", "--embeddings", partial_path,
                         "--out", tmp_path / "r.json")
        assert result.returncode == 2
        assert "ConfigError" in result.stderr
