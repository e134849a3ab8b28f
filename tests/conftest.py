import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sawnet
from sawnet import frontend, models, nn, workers
from sawnet.bundle import write_container
from sawnet.wavio import encode_wav, wav_header

# the child process imports the same sawnet as the tests, installed or not
_CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(sawnet.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def child_pids() -> set[int]:
    """The running children of this process: each /proc/<pid>/stat whose parent
    is this process."""
    me, pids = os.getpid(), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # fields after the parenthesised command name: state, then parent pid
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except OSError:  # it exited while being read
            continue
        if ppid == me:
            pids.add(int(stat.parent.name))
    return pids


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail any test that leaves a child process of the test process behind."""
    before = child_pids()
    yield
    left = child_pids() - before
    if left:
        pytest.fail(f"child processes left running: {sorted(left)}")


@pytest.fixture(scope="session", autouse=True)
def no_child_at_session_end():
    """Fail the run if any child of the test process outlives every test and
    fixture: set up first, this is torn down last, after the session-scoped
    bundles, whose pools close when they are collected."""
    yield
    gc.collect()
    left = child_pids()
    if left:
        pytest.fail(f"child processes still running at the end of the session: {sorted(left)}")


@pytest.fixture(autouse=True)
def in_process_scoring(monkeypatch):
    """Score in this process unless a test starts a pool itself (`pooled`).

    A bundle starts its pool once it has forwarded `workers._START_AFTER`
    patches in-process, and the session-scoped bundles pass that count across
    tests: the pool would start in whichever test crossed it. Tests that
    replace `forward_batch` or `forward_embedding` rely on this pin too."""
    monkeypatch.setattr(workers, "_START_AFTER", math.inf)


def pooled(bundle: models.WeightBundle) -> models.WeightBundle:
    """A new bundle on `bundle`'s folded tensors with its pool started, of
    `workers.usable_cores()` workers; close it with ``b._pool.close()``."""
    b = models.WeightBundle(bundle.spec, dict(bundle.params), bundle.epsilon)
    b._pool = workers.Pool(workers._bundle, b.params, (b.spec, b.epsilon),
                           workers.usable_cores())
    return b


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


def random_bn_stats(spec: models.ModelSpec, seed: int = 0,
                    init_seed: int | None = None) -> dict[str, np.ndarray]:
    """The stored float32 tensors of `spec`, before a bundle folds them:
    `init_bundle`'s seeded He-scaled weights (drawn from `init_seed`) and
    non-trivial running statistics for every batch-norm layer (from `seed`)."""
    init_rng, rng = np.random.default_rng(init_seed), np.random.default_rng(seed)
    params = {}
    for layer in spec.layers:
        for suffix, shape in models.param_shapes(layer).items():
            if suffix in ("kernels", "weights"):
                value = init_rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), shape)
            elif suffix == "gamma":
                value = rng.uniform(0.5, 1.5, shape)
            elif suffix == "var":
                value = rng.uniform(0.2, 2.0, shape)
            elif suffix in ("beta", "mean"):
                value = rng.normal(0, 0.5, shape)
            else:
                value = np.zeros(shape)
            params[f"{layer.name}/{suffix}"] = value.astype(np.float32)
    return params


def save_unfolded(path, spec: models.ModelSpec, stored: dict[str, np.ndarray],
                  epsilon: float = models.DEFAULT_EPSILON):
    """Write `stored` as an unfolded (``folded: false``) container of `spec`'s
    canonical architecture, the layout `save_bundle` no longer writes."""
    write_container(path, {"kind": "weights", "arch_id": spec.arch_id,
                           "num_classes": spec.num_classes, "preproc_tag": frontend.PREPROC_TAG,
                           "epsilon": epsilon, "folded": False}, stored)
    return path


def unfolded_forward(spec, tensors, epsilon, x, stop_after=None):
    """Reference forward of one ``[C, H, W]`` item on stored tensors, in float64:
    every tensor cast per call, batch norm applied as its own affine pass
    after the conv, and convolution by an im2col of its own."""
    for layer in spec.layers:
        t = {suffix: np.asarray(tensors[f"{layer.name}/{suffix}"], np.float64)
             for suffix in models.param_shapes(layer)}
        if layer.kind == "conv":
            c, h, w = x.shape
            k, pad = layer.kernel, layer.kernel // 2
            xp = np.pad(x.astype(np.float64, copy=False), ((0, 0), (pad, pad), (pad, pad)))
            cols = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
            cols = cols.transpose(0, 3, 4, 1, 2).reshape(c * k * k, h * w)
            kmat = t["kernels"].reshape(layer.out_ch, c * k * k)
            x = (kmat @ cols + t["bias"][:, None]).reshape(layer.out_ch, h, w)
        elif layer.kind == "batchnorm":
            scale = t["gamma"] / np.sqrt(t["var"] + epsilon)
            x = (x - t["mean"][:, None, None]) * scale[:, None, None] + t["beta"][:, None, None]
        elif layer.kind == "maxpool":
            x = nn.maxpool_2x2(x[None])[0]
        elif layer.kind == "global_avg_pool":
            x = nn.global_avg_pool(x[None])[0]
        elif layer.kind == "dense":
            x = t["weights"] @ x + t["bias"]
        if layer.relu:
            x = np.maximum(x, 0)
        if layer.name == stop_after:
            break
    return x


def float64_copy(bundle: models.WeightBundle) -> models.WeightBundle:
    """The same bundle with float64 tensors: the float64 reference path."""
    return models.WeightBundle(
        spec=bundle.spec, params={k: np.asarray(v, np.float64) for k, v in bundle.params.items()},
        epsilon=bundle.epsilon)


def tiny_net() -> models.WeightBundle:
    """A network of a few hundred weights on the 96x64 patch: a fast forward,
    so that a test's time goes to the frontend and the pool."""
    spec = models.ModelSpec("aug_vggish", 2, (
        models.LayerDef("conv1", "conv", relu=True, in_ch=1, out_ch=2, kernel=3),
        *(models.LayerDef(f"pool{i}", "maxpool") for i in range(1, 5)),
        models.LayerDef("gap", "global_avg_pool"),
        models.LayerDef("head", "dense", in_units=2, out_units=2)), "gap", 2)
    return models.init_bundle(spec, init="random", seed=5)


def random_patch(seed: int = 0) -> np.ndarray:
    """A seeded ``[96, 64]`` patch."""
    return np.random.default_rng(seed).normal(0, 1, (96, 64))


def random_patches(seeds) -> np.ndarray:
    """The ``[N, 96, 64]`` array of `random_patch` for each seed."""
    return np.stack([random_patch(s) for s in seeds])


@pytest.fixture(scope="session")
def aug_bundle_small():
    """Random aug_vggish bundle with 4 classes and non-trivial BN stats."""
    spec = models.build_aug_vggish(4)
    return models.WeightBundle(spec, random_bn_stats(spec, seed=12, init_seed=11))


@pytest.fixture(scope="session")
def fcn_bundle_small():
    spec = models.build_fcn_vggish(3)
    return models.WeightBundle(spec, random_bn_stats(spec, seed=22, init_seed=21))


@pytest.fixture()
def wav_file(tmp_path):
    def _make(name: str, samples: np.ndarray, sample_rate: int = 16000, fmt: str = "pcm16"):
        path = tmp_path / name
        path.write_bytes(encode_wav(samples, sample_rate, fmt=fmt))
        return path

    return _make
