import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sawnet
from sawnet import frontend, models
from sawnet.wavio import encode_wav, wav_header

# the child process imports the same sawnet as the tests, installed or not
_CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(sawnet.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def run_cli(*args, cwd=None):
    """Run ``python -m sawnet`` with `args`, capturing text output."""
    return subprocess.run(
        [sys.executable, "-m", "sawnet", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=_CLI_ENV,
    )


def write_long_wav(path, seconds: float, sample_rate: int = 44100, channels: int = 2,
                   seed: int = 0, block_s: float = 10.0):
    """Write a seeded PCM16 WAV of tones in noise, `block_s` seconds at a time.

    Only one block is ever held, so the file can be far larger than the test
    should use in memory.
    """
    frames = int(seconds * sample_rate)
    block = int(block_s * sample_rate)
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(100.0, 4000.0, channels)
    header = wav_header(frames, sample_rate, "pcm16", channels)
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, frames, block):
            t = np.arange(lo, min(lo + block, frames))[:, None] / sample_rate
            samples = 0.3 * np.sin(2 * np.pi * freqs * t) + rng.normal(0, 0.05, (len(t), channels))
            fh.write(encode_wav(samples, sample_rate, channels=channels)[len(header):])
    return path


def sine_clip(freq_hz: float, duration_s: float, sample_rate: int = 16000,
              amplitude: float = 0.5, source_id: str = "sine") -> frontend.AudioClip:
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    samples = (amplitude * np.sin(2 * np.pi * freq_hz * t)).astype(np.float32)
    return frontend.AudioClip(samples=samples, sample_rate=sample_rate, source_id=source_id)


def silence_clip(duration_s: float, sample_rate: int = 16000,
                 source_id: str = "silence") -> frontend.AudioClip:
    n = int(duration_s * sample_rate)
    return frontend.AudioClip(samples=np.zeros(n, np.float32), sample_rate=sample_rate,
                              source_id=source_id)


def random_bn_stats(bundle: models.WeightBundle, seed: int = 0) -> models.WeightBundle:
    """Give every batch-norm layer non-trivial running statistics."""
    rng = np.random.default_rng(seed)
    for key in list(bundle.params):
        if key.endswith("/mean") or key.endswith("/beta"):
            bundle.params[key] = rng.normal(0, 0.5, bundle.params[key].shape).astype(np.float32)
        elif key.endswith("/var"):
            bundle.params[key] = rng.uniform(0.2, 2.0, bundle.params[key].shape).astype(np.float32)
        elif key.endswith("/gamma"):
            bundle.params[key] = rng.uniform(0.5, 1.5, bundle.params[key].shape).astype(np.float32)
    bundle.validate()
    return bundle


def float64_copy(bundle: models.WeightBundle) -> models.WeightBundle:
    """The same bundle with float64 tensors: the float64 reference path."""
    return models.WeightBundle(
        spec=bundle.spec, params={k: np.asarray(v, np.float64) for k, v in bundle.params.items()},
        preproc_tag=bundle.preproc_tag, epsilon=bundle.epsilon)


def random_patch(seed: int = 0) -> frontend.LogMelPatch:
    rng = np.random.default_rng(seed)
    return frontend.LogMelPatch(values=rng.normal(0, 1, (96, 64)))


@pytest.fixture(scope="session")
def aug_bundle_small():
    """Random aug_vggish bundle with 4 classes and non-trivial BN stats."""
    bundle = models.init_bundle(models.build_aug_vggish(4), init="random", seed=11)
    return random_bn_stats(bundle, seed=12)


@pytest.fixture(scope="session")
def fcn_bundle_small():
    bundle = models.init_bundle(models.build_fcn_vggish(3), init="random", seed=21)
    return random_bn_stats(bundle, seed=22)


@pytest.fixture()
def wav_file(tmp_path):
    def _make(name: str, samples: np.ndarray, sample_rate: int = 16000, fmt: str = "pcm16"):
        path = tmp_path / name
        path.write_bytes(encode_wav(samples, sample_rate, fmt=fmt))
        return path

    return _make
