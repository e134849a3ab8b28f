"""Black-box CLI tests: exit codes, output formats, reproducibility."""

import json
import re

import numpy as np
import pytest

from conftest import random_bn_stats, run_cli, sine_clip
from sawnet import models, transfer
from sawnet.bundle import (load_bundle, read_container, save_bundle, save_spectrogram,
                           write_container)
from sawnet.evaluation import score_spectrogram
from sawnet.frontend import extract_patches, log_mel_spectrogram, resample_to_16k
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
def wav_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-wavs")
    clip = sine_clip(440.0, 2.0)
    (root / "tone.wav").write_bytes(encode_wav(clip.samples, 16000))
    (root / "silent10.wav").write_bytes(encode_wav(np.zeros(160000), 16000))
    return root


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-cache")
    rng = np.random.default_rng(70)
    items = []
    for label in range(4):
        for i in range(20):
            vec = rng.normal(0, 0.1, 16)
            vec[label] += 2.0
            items.append(transfer.EmbeddingItem(f"c{label}{i:02d}", (i % 5) + 1, label, vec))
    eset = transfer.EmbeddingSet(items=tuple(items), dim=16, num_classes=4)
    path = root / "cache.csnw"
    transfer.save_embeddings(path, eset)
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

    def test_directory_input(self, tmp_path, wav_dir):
        out = tmp_path / "featdir"
        result = run_cli("featurize", wav_dir, "--out-dir", out)
        assert result.returncode == 0
        assert (out / "tone.csnw").is_file() and (out / "silent10.csnw").is_file()


class TestInfo:
    def test_reports_parameter_count(self, tmp_path):
        path = tmp_path / "aug50.csnw"
        save_bundle(models.init_bundle(models.build_aug_vggish(50), init="zeros"), path)
        result = run_cli("info", "--model", path)
        assert result.returncode == 0
        assert "trainable_params: 4647346" in result.stdout
        assert "arch_id: aug_vggish" in result.stdout

    def test_fcn_parameter_count(self, tmp_path):
        path = tmp_path / "fcn50.csnw"
        save_bundle(models.init_bundle(models.build_fcn_vggish(50), init="zeros"), path)
        result = run_cli("info", "--model", path)
        assert "trainable_params: 18716338" in result.stdout

    def test_compute_dtype_and_weight_bytes(self, tmp_path):
        # a loaded bundle holds its weights as the file stores them
        path = tmp_path / "fcn3.csnw"
        save_bundle(models.init_bundle(models.build_fcn_vggish(3), init="zeros"), path)
        header, _ = read_container(path)
        lines = run_cli("info", "--model", path).stdout.splitlines()
        assert "compute_dtype: float32" in lines
        assert f"weight_bytes: {header['payload_bytes']}" in lines

    def test_layer_lines(self, tmp_path, model_dir):
        lines = run_cli("info", "--model", model_dir / "rand4.csnw").stdout.splitlines()
        assert "  conv1    conv            1->64 3x3" in lines
        assert "  bn1      batchnorm       64 channels +relu" in lines
        assert "  pool1    maxpool         " in lines
        assert "  gap      global_avg_pool " in lines
        assert "  fc1      dense           512->256 +relu" in lines
        assert "  head     dense           256->4" in lines
        path = tmp_path / "folded.csnw"
        save_bundle(models.fold_batchnorm(models.init_bundle(models.build_fcn_vggish(2))), path)
        lines = run_cli("info", "--model", path).stdout.splitlines()
        assert "folded: true" in lines
        assert "  conv8    conv            1024->1024 3x3 +relu" in lines
        assert "  clf      conv            1024->2 1x1" in lines

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
    """`detect` on a WAV (read in blocks) and on its featurized container agree."""

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
        net = random_bn_stats(models.init_bundle(build(2), init="random", seed=91), seed=92)
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
        outs = []
        for name, inputs in (("wav", sorted(wavs.glob("*.wav"))),
                             ("feat", sorted((tmp_path / "feat").glob("*.csnw")))):
            outs.append(tmp_path / f"{name}.jsonl")
            assert run_cli("detect", "--model", model, "--threshold", threshold, "--gap", "0",
                           "--out", outs[-1], *inputs).returncode == 0
        events = outs[0].read_bytes()
        assert events == outs[1].read_bytes()
        assert {json.loads(line)["clip_id"] for line in events.splitlines()} == \
            {"clip44100", "clip16000"}


class TestInfer:
    def test_json_lines_output(self, model_dir, wav_dir):
        result = run_cli("infer", "--model", model_dir / "rand4.csnw", wav_dir / "tone.wav")
        assert result.returncode == 0
        record = json.loads(result.stdout.strip())
        assert record["clip_id"] == "tone"
        assert len(record["probs"]) == 4
        assert abs(sum(record["probs"]) - 1.0) < 1e-4
        assert record["predicted"] == int(np.argmax(record["probs"]))


class TestTrainAndCV:
    def test_train_head_writes_container(self, tmp_path, cache_path):
        out = tmp_path / "head.csnw"
        result = run_cli("train-head", "--embeddings", cache_path, "--out", out,
                         "--epochs", "10", "--lr", "0.1")
        assert result.returncode == 0
        from sawnet.bundle import read_container

        header, tensors = read_container(out)
        assert header["kind"] == "dense_head"
        assert tensors["head/weights"].shape == (4, 16)
        assert out.with_suffix(".manifest.json").is_file()

    def test_train_head_byte_reproducible(self, tmp_path, cache_path):
        outs = [tmp_path / "h1.csnw", tmp_path / "h2.csnw"]
        for out in outs:
            assert run_cli("train-head", "--embeddings", cache_path, "--out", out,
                           "--epochs", "5", "--seed", "7").returncode == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flag", ["--lr", "--l2"])
    def test_train_head_rejects_non_finite_settings(self, tmp_path, cache_path, flag):
        out = tmp_path / "head.csnw"
        result = run_cli("train-head", "--embeddings", cache_path, "--out", out, flag, "nan")
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

    def test_reports_identical_apart_from_timestamp(self, tmp_path, cache_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            assert run_cli("eval-cv", "--embeddings", cache_path, "--out", p,
                           "--epochs", "5").returncode == 0
        texts = [re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": "X"',
                        p.read_text()) for p in paths]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("meta", [5, {"fold": "x", "label": 0}])
    def test_malformed_clip_metadata_exits_2(self, tmp_path, meta):
        cache = tmp_path / "cache.csnw"
        write_container(cache, {"kind": "embeddings", "dim": 2, "num_classes": 2,
                                "clips": {"a": meta}}, {"a": np.zeros(2)})
        out = tmp_path / "out.csnw"
        for command in ("train-head", "eval-cv"):
            result = run_cli(command, "--embeddings", cache, "--out", out)
            assert result.returncode == 2
            assert "ValidationError: clip 'a'" in result.stderr and not result.stdout
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
