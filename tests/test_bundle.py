"""Container format tests: byte-stable round trips and corruption handling."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import float64_copy, random_bn_stats, random_patch, save_unfolded, unfolded_forward
from sawnet import bundle, evaluation, frontend, models, nn
from sawnet.errors import FormatError, ValidationError
from sawnet.frontend import PREPROC_TAG, LogMelSpectrogram


def make_container(header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"CSNW" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob + payload


class TestRoundTrip:
    @pytest.mark.parametrize("build,k", [(models.build_aug_vggish, 4),
                                         (models.build_fcn_vggish, 3)])
    def test_save_load_byte_stable(self, tmp_path, build, k):
        original = models.init_bundle(build(k), init="random", seed=5)
        first = tmp_path / "a.csnw"
        second = tmp_path / "b.csnw"
        bundle.save_bundle(original, first)
        loaded = bundle.load_bundle(first)
        assert loaded.spec == original.spec
        assert set(loaded.params) == set(original.params)
        for key in original.params:
            np.testing.assert_array_equal(loaded.params[key],
                                          original.params[key].astype(np.float32))
        bundle.save_bundle(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_folded_bundle_round_trip(self, tmp_path):
        # an unfolded file loads as the bundle its tensors make in memory,
        # and is saved folded
        spec = models.build_aug_vggish(3)
        stored = random_bn_stats(spec, seed=7, init_seed=6)
        loaded = bundle.load_bundle(save_unfolded(tmp_path / "unfolded.csnw", spec, stored))
        in_memory = models.WeightBundle(spec, dict(stored))
        assert loaded.spec == in_memory.spec == models.fold_spec(spec)
        assert set(loaded.params) == set(in_memory.params)
        for key, arr in in_memory.params.items():
            np.testing.assert_array_equal(loaded.params[key], arr)
        path = tmp_path / "folded.csnw"
        bundle.save_bundle(loaded, path)
        assert bundle.read_container(path)[0]["folded"] is True
        reloaded = bundle.load_bundle(path)
        patch = random_patch(8)[None]
        np.testing.assert_array_equal(models.forward_batch(reloaded, patch),
                                      models.forward_batch(loaded, patch))

    def test_epsilon_default_when_absent(self, tmp_path):
        original = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        path = tmp_path / "m.csnw"
        bundle.save_bundle(original, path)
        header, tensors = bundle.read_container(path)
        del header["epsilon"]
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        assert bundle.load_bundle(path).epsilon == 1e-5

    def test_unknown_header_fields_ignored(self, tmp_path):
        original = models.init_bundle(models.build_aug_vggish(2), init="zeros")
        path = tmp_path / "m.csnw"
        bundle.save_bundle(original, path)
        header, tensors = bundle.read_container(path)
        header["future_extension"] = {"nested": [1, 2, 3]}
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        assert bundle.load_bundle(path).spec == original.spec

    def test_non_canonical_spec_refused(self, tmp_path):
        spec = models.build_aug_vggish(2)
        # drop the 256-unit FC: still a valid network, but not the canonical layout
        layers = tuple(l for l in spec.layers if l.name != "fc1")
        layers = tuple(
            models.LayerDef("head", "dense", in_units=512, out_units=2)
            if l.name == "head" else l for l in layers
        )
        hacked = models.ModelSpec(arch_id=spec.arch_id, num_classes=2, layers=layers,
                                  embedding_layer="gap", embedding_dim=512)
        bundle_obj = models.init_bundle(hacked, init="zeros")
        with pytest.raises(ValidationError):
            bundle.save_bundle(bundle_obj, tmp_path / "x.csnw")


class TestCorruption:
    def _valid_file(self, tmp_path):
        path = tmp_path / "valid.csnw"
        bundle.save_bundle(models.init_bundle(models.build_aug_vggish(2), init="zeros"), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            bundle.load_bundle(path)

    def test_unsupported_version(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            bundle.load_bundle(path)

    def test_truncated_header(self, tmp_path):
        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(FormatError):
            bundle.load_bundle(path)

    def test_truncated_payload(self, tmp_path):
        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(FormatError):
            bundle.load_bundle(path)

    def test_non_finite_weight_names_its_layer(self, tmp_path):
        spec = models.build_aug_vggish(2)
        path = save_unfolded(tmp_path / "unfolded.csnw", spec, random_bn_stats(spec))
        header, tensors = bundle.read_container(path)
        for key in ("conv1/bias", "bn2/gamma", "head/weights"):
            bad = tensors[key].copy()
            bad.flat[0] = np.inf
            bundle.write_container(path, header, {**tensors, key: bad})
            with pytest.raises(ValidationError, match=f"layer {key.split('/')[0]}: .*non-finite"):
                bundle.load_bundle(path)

    def test_garbage_header_json(self, tmp_path):
        blob = b"{not json"
        data = b"CSNW" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob
        path = tmp_path / "bad.csnw"
        path.write_bytes(data)
        with pytest.raises(FormatError):
            bundle.read_container(path)

    def test_deeply_nested_header(self, tmp_path):
        path = tmp_path / "deep.csnw"
        path.write_bytes(b"CSNW" + struct.pack("<IQ", 1, 100_000) + b"[" * 100_000)
        with pytest.raises(FormatError, match="not valid JSON"):
            bundle.read_container(path)

    @pytest.mark.parametrize("field, value, error", [
        ("shape", [200, True], "malformed manifest entry"),
        ("shape", [True, 64], "malformed manifest entry"),
        ("offset", True, "invalid offset True"),
        ("payload_bytes", True, "payload_bytes must be a non-negative integer"),
        ("payload_bytes", False, "payload_bytes must be a non-negative integer")])
    def test_boolean_sizes_rejected(self, tmp_path, field, value, error):
        # JSON true is a Python int: it was read as offset 1, or size 1
        entry = {"name": "logmel", "shape": [200, 64], "dtype": "f32", "offset": 0}
        header = {"kind": "logmel", "tensors": [entry], "payload_bytes": 200 * 64 * 4 + 4}
        (entry if field != "payload_bytes" else header)[field] = value
        path = tmp_path / "bool.csnw"
        path.write_bytes(make_container(header, bytes(200 * 64 * 4 + 4)))
        with pytest.raises(FormatError, match=error):
            bundle.read_container(path)

    @pytest.mark.parametrize("shape", [[0] * 65, [0, 2**62, 2**62], [0, 10**30]])
    def test_empty_shape_numpy_cannot_make(self, tmp_path, shape):
        header = {"tensors": [{"name": "t", "shape": shape, "dtype": "f32", "offset": 0}]}
        path = tmp_path / "empty.csnw"
        path.write_bytes(make_container(header, b""))
        with pytest.raises(FormatError, match="unusable shape"):
            bundle.read_container(path)

    def test_manifest_shape_longer_than_payload(self, tmp_path):
        # manifest declares 64 floats, payload holds only 63
        header = {
            "tensors": [{"name": "t", "shape": [64], "dtype": "f32", "offset": 0}],
            "payload_bytes": 63 * 4,
        }
        path = tmp_path / "short.csnw"
        path.write_bytes(make_container(header, b"\x00" * (63 * 4)))
        with pytest.raises(ValidationError):
            bundle.read_container(path)

    def test_unknown_dtype(self, tmp_path):
        header = {
            "tensors": [{"name": "t", "shape": [2], "dtype": "f64", "offset": 0}],
            "payload_bytes": 16,
        }
        path = tmp_path / "dtype.csnw"
        path.write_bytes(make_container(header, b"\x00" * 16))
        with pytest.raises(FormatError):
            bundle.read_container(path)

    def test_duplicate_tensor_names(self, tmp_path):
        entry = {"name": "t", "shape": [1], "dtype": "f32", "offset": 0}
        header = {"tensors": [entry, dict(entry)], "payload_bytes": 4}
        path = tmp_path / "dup.csnw"
        path.write_bytes(make_container(header, b"\x00" * 4))
        with pytest.raises(ValidationError):
            bundle.read_container(path)

    def test_overlapping_tensors(self, tmp_path):
        # "b" starts at the second value of "a"
        header = {
            "tensors": [{"name": "a", "shape": [2], "dtype": "f32", "offset": 0},
                        {"name": "b", "shape": [2], "dtype": "f32", "offset": 4}],
            "payload_bytes": 12,
        }
        path = tmp_path / "overlap.csnw"
        path.write_bytes(make_container(header, b"\x00" * 12))
        with pytest.raises(ValidationError, match="overlap"):
            bundle.read_container(path)

    def test_missing_arch_id(self, tmp_path):
        header = {"tensors": [], "payload_bytes": 0, "num_classes": 2}
        path = tmp_path / "noarch.csnw"
        path.write_bytes(make_container(header, b""))
        with pytest.raises(ValidationError):
            bundle.load_bundle(path)

    @pytest.mark.parametrize("num_classes", [True, 1, 2.0, "2"])
    def test_num_classes_must_be_an_integer_of_at_least_two(self, tmp_path, num_classes):
        path = self._valid_file(tmp_path)
        header, tensors = bundle.read_container(path)
        header["num_classes"] = num_classes
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        with pytest.raises(ValidationError, match="invalid num_classes"):
            bundle.load_bundle(path)

    def test_wrong_tensor_set_for_arch(self, tmp_path):
        header = {
            "arch_id": "aug_vggish", "num_classes": 2, "preproc_tag": PREPROC_TAG,
            "epsilon": 1e-5, "folded": False,
            "tensors": [{"name": "conv1/kernels", "shape": [64, 1, 3, 3],
                         "dtype": "f32", "offset": 0}],
            "payload_bytes": 64 * 9 * 4,
        }
        path = tmp_path / "partial.csnw"
        path.write_bytes(make_container(header, b"\x00" * (64 * 9 * 4)))
        with pytest.raises(ValidationError):
            bundle.load_bundle(path)

    def test_preproc_tag_mismatch(self, tmp_path):
        path = self._valid_file(tmp_path)
        header, tensors = bundle.read_container(path)
        header["preproc_tag"] = "logmel/other-convention"
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        with pytest.raises(ValidationError):
            bundle.load_bundle(path)


class TestPreparedWeights:
    """A loaded bundle holds its weights once, as read-only float32 arrays;
    a float64 bundle of the same tensors is the reference forward."""

    # operator attribute -> parameter tensor suffix it must view
    VIEWS = {
        nn.ConvParams: {"kernels": "kernels", "kmat": "kernels", "bias": "bias"},
        nn.DenseParams: {"weights": "weights", "bias": "bias"},
    }

    @pytest.fixture(params=["aug_bundle_small", "fcn_bundle_small"])
    def saved(self, request, tmp_path):
        path = tmp_path / "model.csnw"
        bundle.save_bundle(request.getfixturevalue(request.param), path)
        return path

    def test_operators_view_params_read_only(self, saved):
        loaded = bundle.load_bundle(saved)
        viewed = set()
        for name, op in loaded._objs.items():
            for attr, suffix in self.VIEWS[type(op)].items():
                held, param = getattr(op, attr), loaded.params[f"{name}/{suffix}"]
                assert held.dtype == param.dtype == np.float32
                assert np.shares_memory(held, param), f"{name}.{attr} is a copy"
                for arr in (held, param):
                    with pytest.raises(ValueError):
                        arr.flat[0] = 1.0
                viewed.add(f"{name}/{suffix}")
        assert viewed == set(loaded.params)

    def test_forwards_match_cast_per_call_reference(self, saved):
        # the reference casts the stored float32 tensors to float64 on every
        # call, the way the operators did before weights were prepared at load
        loaded = float64_copy(bundle.load_bundle(saved))
        _, stored = bundle.read_container(saved)
        spec = loaded.spec
        for seed in (1, 2):
            x = random_patch(seed)[None]
            logits = unfolded_forward(spec, stored, loaded.epsilon, x)
            assert np.array_equal(models.run_layers(loaded, x[None])[0], logits)
            emb = unfolded_forward(spec, stored, loaded.epsilon, x, spec.embedding_layer)
            if emb.ndim == 3:
                emb = nn.global_avg_pool(emb[None])[0]
            assert np.array_equal(models.forward_embedding(loaded, x)[0], emb)


class TestLoadMemory:
    @pytest.fixture(params=["aug_bundle_small", "fcn_bundle_small"])
    def saved(self, request, tmp_path):
        path = tmp_path / "model.csnw"
        bundle.save_bundle(request.getfixturevalue(request.param), path)
        return path

    def test_read_tensors_are_read_only(self, saved):
        _, tensors = bundle.read_container(saved)
        for arr in tensors.values():
            assert arr.dtype == np.float32
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_load_peaks_near_two_and_a_half_file_sizes(self, saved):
        bundle.load_bundle(saved)
        tracemalloc.start()
        try:
            bundle.load_bundle(saved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # float64 weights (2x) plus the largest float32 tensor still to be cast;
        # a whole float32 copy of the file alive until the last cast made it 3x
        assert peak < 2.6 * saved.stat().st_size

    def test_load_peaks_near_one_file_size(self, saved):
        # the read tensors are the weights: no cast at load (float64 weights
        # took the peak to 2.5x)
        bundle.load_bundle(saved)
        tracemalloc.start()
        try:
            loaded = bundle.load_bundle(saved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * saved.stat().st_size
        assert loaded.dtype == np.float32

    @pytest.mark.parametrize("build", [models.build_aug_vggish, models.build_fcn_vggish])
    def test_unfolded_load_peaks_one_kernel_above_its_folded_twin(self, tmp_path, build):
        # each conv's folded kernels are made while its stored ones are held;
        # one float64 product of a whole kernel peaked at 56.3 MB (aug) and
        # 225.7 MB (fcn) against their folded twins' 20.9 and 84.1 MB
        spec = build(2)
        stored = random_bn_stats(spec, seed=1, init_seed=2)
        largest = max(arr.nbytes for key, arr in stored.items() if key.endswith("/kernels"))
        unfolded = save_unfolded(tmp_path / "unfolded.csnw", spec, stored)
        del stored
        folded = tmp_path / "folded.csnw"
        bundle.save_bundle(bundle.load_bundle(unfolded), folded)
        peaks = []
        for path in (unfolded, folded):
            bundle.load_bundle(path)
            tracemalloc.start()
            try:
                bundle.load_bundle(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] + largest + 8e6


class TestFuzzedInput:
    """Arbitrary bytes must fail with the package's error family, not crash."""

    def test_random_bytes_rejected_cleanly(self, tmp_path):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from sawnet.errors import SawnetError

        path = tmp_path / "fuzz.csnw"

        @given(st.binary(max_size=400))
        # a file written per example outlasts the default 200 ms deadline on a busy machine
        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        def check(data):
            path.write_bytes(data)
            try:
                bundle.read_container(path)
            except SawnetError:
                pass

        check()

    def test_arbitrary_manifest_values_rejected_cleanly(self, tmp_path):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from sawnet.errors import SawnetError

        # a spectrogram container whose manifest fields are each kept, dropped
        # or replaced by any JSON value loads or fails with a SawnetError
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=10)
        fields = ("name", "shape", "dtype", "offset", "payload_bytes")
        path = tmp_path / "manifest.csnw"

        sizes = st.lists(st.integers(-1, 100) | st.booleans(), max_size=3)

        @given(st.dictionaries(st.sampled_from(fields), json_values | sizes),
               st.sets(st.sampled_from(fields)))
        @settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        def check(changes, dropped):
            entry = {"name": "logmel", "shape": [100, 64], "dtype": "f32", "offset": 0}
            header = {"kind": "logmel", "tensors": [entry], "payload_bytes": 100 * 64 * 4}
            for key in fields:
                target = header if key == "payload_bytes" else entry
                if key in changes:
                    target[key] = changes[key]
                if key in dropped:
                    target.pop(key)
            path.write_bytes(make_container(header, bytes(100 * 64 * 4)))
            try:
                bundle.load_spectrogram(path)
            except SawnetError:
                pass

        check()

    def test_mangled_valid_file_rejected_cleanly(self, tmp_path):
        from sawnet.errors import SawnetError

        path = tmp_path / "mangle.csnw"
        bundle.save_bundle(models.init_bundle(models.build_aug_vggish(2), init="zeros"), path)
        pristine = path.read_bytes()
        rng = np.random.default_rng(99)
        for _ in range(60):
            data = bytearray(pristine)
            for _ in range(int(rng.integers(1, 8))):
                data[int(rng.integers(len(data)))] = int(rng.integers(256))
            path.write_bytes(bytes(data))
            try:
                bundle.load_bundle(path)
            except SawnetError:
                pass


class TestSpectrogramContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = rng.normal(-2, 1, (130, 64))
        spec = LogMelSpectrogram(frames=frames, source_id="clip-x")
        path = tmp_path / "s.csnw"
        bundle.save_spectrogram(path, spec)
        loaded = bundle.load_spectrogram(path)
        assert loaded.source_id == "clip-x"
        assert loaded.frames.shape == (130, 64)
        # payload is float32, so expect float32 resolution
        np.testing.assert_allclose(loaded.frames, frames, atol=1e-5)

    def test_loaded_frames_are_the_read_float32(self, tmp_path):
        path = tmp_path / "s.csnw"
        bundle.save_spectrogram(path, LogMelSpectrogram(frames=np.ones((120, 64))))
        frames = bundle.load_spectrogram(path).frames
        assert frames.dtype == np.float32
        with pytest.raises(ValueError):
            frames[0, 0] = 0.0

    def test_load_peaks_near_one_file_size(self, tmp_path):
        # widening the frames to float64 took the peak to 3x the file size
        path = tmp_path / "long.csnw"
        frames = np.random.default_rng(10).normal(-2, 1, (20000, 64))
        bundle.save_spectrogram(path, LogMelSpectrogram(frames=frames, source_id="long"))
        del frames
        bundle.load_spectrogram(path)
        tracemalloc.start()
        try:
            loaded = bundle.load_spectrogram(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.num_frames == 20000
        assert peak < 1.1 * path.stat().st_size

    @pytest.mark.parametrize("name", ["aug_bundle_small", "fcn_bundle_small"])
    def test_float32_frames_give_the_widened_frames_results(self, tmp_path, request, name):
        # a network rounds its input to its own dtype, so the float32 frames
        # give exactly what their float64 widening gave
        net = request.getfixturevalue(name)
        path = tmp_path / "s.csnw"
        rng = np.random.default_rng(11)
        bundle.save_spectrogram(path, LogMelSpectrogram(
            frames=rng.normal(-2, 1, (498, 64)), num_samples=80000))
        loaded = bundle.load_spectrogram(path)
        widened = LogMelSpectrogram(loaded.frames.astype(np.float64), loaded.source_id,
                                    loaded.num_samples)
        for b in (net, float64_copy(net)):
            assert (evaluation.score_spectrogram(b, loaded, 1)
                    == evaluation.score_spectrogram(b, widened, 1))
            np.testing.assert_array_equal(
                models.forward_batch(b, frontend.extract_patches(loaded)),
                models.forward_batch(b, frontend.extract_patches(widened)))

    def test_frame_timing_recorded_and_optional(self, tmp_path):
        path = tmp_path / "s.csnw"
        bundle.save_spectrogram(path, LogMelSpectrogram(frames=np.zeros((120, 64))))
        header, tensors = bundle.read_container(path)
        assert (header["frame_hop_s"], header["frame_len_s"]) == (0.01, 0.025)
        del header["frame_hop_s"], header["frame_len_s"]
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        assert bundle.load_spectrogram(path).num_frames == 120

    @pytest.mark.parametrize("source_id", [[[[]]] * 2, 7, None, {"id": "x"}])
    def test_non_string_source_id_rejected(self, tmp_path, source_id):
        # a header of nested lists once became a clip id of its text
        path = tmp_path / "s.csnw"
        bundle.save_spectrogram(path, LogMelSpectrogram(frames=np.zeros((120, 64))))
        header, tensors = bundle.read_container(path)
        header["source_id"] = source_id
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        with pytest.raises(ValidationError, match="source_id must be a string"):
            bundle.load_spectrogram(path)
        del header["source_id"]
        bundle.write_container(path, header, tensors)
        assert bundle.load_spectrogram(path).source_id == ""

    def test_num_samples_round_trip(self, tmp_path):
        spec = LogMelSpectrogram(frames=np.zeros((298, 64)), num_samples=47950)
        path = tmp_path / "s.csnw"
        bundle.save_spectrogram(path, spec)
        assert bundle.load_spectrogram(path).num_samples == 47950

    def test_whole_seconds_survive_container(self, tmp_path):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        path = tmp_path / "s.csnw"

        @given(st.integers(16000, 5 * 16000 - 1))
        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        def check(num_samples):
            clip = frontend.AudioClip(np.zeros(num_samples, np.float32), 16000)
            spec = frontend.log_mel_spectrogram(clip)
            bundle.save_spectrogram(path, spec)
            loaded = bundle.load_spectrogram(path)
            assert spec.whole_seconds == loaded.whole_seconds == num_samples // 16000
            # the last scored second's patch starts inside the frames
            assert (loaded.whole_seconds - 1) * 100 < loaded.num_frames

        check()

    @pytest.mark.parametrize("num_samples", [47950 + 160, 399, 47950.0, "47950"])
    def test_inconsistent_num_samples_rejected(self, tmp_path, num_samples):
        path = tmp_path / "bad.csnw"
        bundle.write_container(path, {"kind": "logmel", "num_samples": num_samples},
                               {"logmel": np.zeros((298, 64))})
        with pytest.raises(ValidationError):
            bundle.load_spectrogram(path)

    def test_preproc_tag_mismatch(self, tmp_path):
        path = tmp_path / "other.csnw"
        bundle.write_container(path, {"kind": "logmel", "preproc_tag": "logmel/other"},
                               {"logmel": np.zeros((120, 64))})
        with pytest.raises(ValidationError, match="logmel/other"):
            bundle.load_spectrogram(path)

    def test_wrong_band_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csnw"
        bundle.write_container(path, {"kind": "logmel"}, {"logmel": np.zeros((10, 32))})
        with pytest.raises(ValidationError):
            bundle.load_spectrogram(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, tmp_path, value):
        frames = np.zeros((120, 64), np.float32)
        frames[119, 63] = value
        path = tmp_path / "bad.csnw"
        bundle.write_container(path, {"kind": "logmel"}, {"logmel": frames})
        with pytest.raises(ValidationError, match="logmel tensor has non-finite values"):
            bundle.load_spectrogram(path)

    def test_empty_spectrogram_rejected(self, tmp_path):
        # zero frames cannot be edge-padded into a patch
        path = tmp_path / "empty.csnw"
        bundle.write_container(path, {"kind": "logmel"}, {"logmel": np.zeros((0, 64))})
        with pytest.raises(ValidationError, match="frames >= 1"):
            bundle.load_spectrogram(path)


class TestHeaderNumbers:
    """Header numbers must be finite and > 0; JSON's Infinity and NaN parse as floats."""

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), 0.0, -1e-5, "1e-5", True])
    def test_bad_epsilon_rejected(self, tmp_path, epsilon):
        path = tmp_path / "m.csnw"
        bundle.save_bundle(models.init_bundle(models.build_aug_vggish(2), init="zeros"), path)
        header, tensors = bundle.read_container(path)
        header["epsilon"] = epsilon
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        with pytest.raises(ValidationError, match="epsilon"):
            bundle.load_bundle(path)

    @pytest.mark.parametrize("folded", ["false", "true", 0, 1, None])
    def test_non_boolean_folded_rejected(self, tmp_path, folded):
        # "false" is truthy: an unfolded file read as folded failed on its
        # batch-norm tensors as "unreferenced"
        spec = models.build_aug_vggish(2)
        path = save_unfolded(tmp_path / "m.csnw", spec, random_bn_stats(spec))
        header, tensors = bundle.read_container(path)
        header["folded"] = folded
        del header["tensors"], header["payload_bytes"]
        bundle.write_container(path, header, tensors)
        with pytest.raises(ValidationError, match="invalid folded"):
            bundle.load_bundle(path)

    @pytest.mark.parametrize("field", ["frame_hop_s", "frame_len_s"])
    @pytest.mark.parametrize("value", ["abc", float("nan"), float("inf"), 0, -0.01, None, 0.02])
    def test_bad_spectrogram_timing_rejected(self, tmp_path, field, value):
        path = tmp_path / "s.csnw"
        bundle.write_container(path, {"kind": "logmel", field: value},
                               {"logmel": np.zeros((120, 64))})
        with pytest.raises(ValidationError, match=field):
            bundle.load_spectrogram(path)
