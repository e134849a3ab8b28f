"""Resident scoring: a bundle's pool of worker processes.

`score_stream` and `extract_embeddings` on a pool must give what they give in
this process, bit for bit; the pool starts only when it is due, and no worker
outlives its bundle, a failure, or the process that started it.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import _CLI_ENV, child_pids, float64_copy, pooled, tiny_net
from sawnet import bundle, evaluation, frontend, models, transfer, workers
from sawnet.errors import SawnetError
from sawnet.wavio import WavReader, decode_wav, encode_wav

START_AFTER = workers._START_AFTER  # the constant as shipped; conftest pins it per test


def audio(seconds: float, rate: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * rate)) / rate
    return (0.4 * np.sin(2 * np.pi * rng.uniform(100, 3000) * t)
            + rng.normal(0, 0.1, len(t))).astype(np.float32)


def as_source(kind: str, samples: np.ndarray, rate: int, tmp_path: Path):
    """`samples` as an `AudioClip`, a `WavReader` on a float32 file (closed by
    the caller), or the featurized container of that file, loaded."""
    clip = frontend.AudioClip(samples, rate, f"{kind}-{rate}")
    if kind == "clip":
        return clip
    path = tmp_path / f"{kind}-{rate}.wav"
    path.write_bytes(encode_wav(samples, rate, fmt="float32"))
    if kind == "wav":
        return WavReader(path, clip.source_id)
    features = tmp_path / f"{kind}-{rate}.csnw"
    bundle.save_spectrogram(features, frontend.log_mel_spectrogram(
        frontend.resample_to_16k(decode_wav(path.read_bytes(), clip.source_id))))
    return bundle.load_spectrogram(features)


class TestBitIdentical:
    """Every probability `==` and every embedding `np.array_equal` to in-process."""

    # (input kind, rate, seconds for aug, for fcn): 1 block, which a call runs
    # here and a pool's `run` on one worker; 2 blocks, fewer than the 3
    # workers; and an odd count, 5 blocks of aug and 3 of fcn
    CASES = [("clip", 16000, 1.3, 1.3), ("wav", 44100, 2.4, 5.1), ("container", 48000, 5.6, 9.1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["aug", "fcn"])
    def test_pool_matches_in_process(self, arch, dtype, aug_bundle_small, fcn_bundle_small,
                                     monkeypatch, tmp_path):
        net = aug_bundle_small if arch == "aug" else fcn_bundle_small
        net = net if dtype == np.float32 else float64_copy(net)
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        pool_net = pooled(net)
        try:
            counts = []
            for kind, rate, aug_s, fcn_s in self.CASES:
                samples = audio(aug_s if arch == "aug" else fcn_s, rate, seed=rate)
                got = {}
                for b in (net, pool_net):
                    src = as_source(kind, samples, rate, tmp_path)
                    try:
                        scores = evaluation.score_stream(b, src, positive_class=1)
                        eset, errors = transfer.extract_embeddings(b, [(src, 0, 1)], 2)
                        assert not errors
                        got[b is net] = scores, eset.items[0].vector
                        run = frontend.blocks(src, net.plan[0].per_call, 100, len(scores))
                        if len(run) == 1 and b is pool_net:
                            [ones] = pool_net._pool.map(workers._forward_run, [(
                                "forward_batch", *frontend.block_window(src, run),
                                net.plan[0].per_call, 100)])
                            here = [models.forward_batch(net, p)
                                    for p in frontend.block_patches(src, run[0],
                                                                    net.plan[0].per_call, 100)]
                            assert all(map(np.array_equal, ones, here)) and len(ones) == 1
                    finally:
                        if kind == "wav":
                            src.close()
                counts.append(len(run))
                (want_scores, want_vector), (scores, vector) = got[True], got[False]
                assert scores == want_scores
                assert vector.dtype == want_vector.dtype and np.array_equal(vector, want_vector)
            assert counts == ([1, 2, 5] if arch == "aug" else [1, 2, 3])
            assert net._pool is None and len(pool_net._pool.workers) == 3
        finally:
            pool_net._pool.close()


class TestStartAndStop:
    def test_starts_once_the_in_process_patches_pay_for_it(self, monkeypatch):
        monkeypatch.setattr(workers, "_START_AFTER", START_AFTER)
        net = tiny_net()
        clip = frontend.AudioClip(audio(START_AFTER - 1, 16000, 1), 16000)
        evaluation.score_stream(net, clip, 1)
        assert (net._scored, net._pool) == (START_AFTER - 1, None)
        one_second = frontend.AudioClip(audio(1.5, 16000, 2), 16000)
        evaluation.score_stream(net, one_second, 1)
        assert (net._scored, net._pool) == (START_AFTER, None)  # one block stays here
        try:
            evaluation.score_stream(net, frontend.AudioClip(audio(2.5, 16000, 3), 16000), 1)
            assert len(child_pids()) == len(net._pool.workers) == workers.usable_cores()
            assert net._scored == START_AFTER  # pool work is not counted here
            assert evaluation.score_stream(net, one_second, 1) and net._scored == START_AFTER + 1
        finally:
            if net._pool is not None:
                net._pool.close()
        assert child_pids() == set()

    def test_one_core_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a subprocess was started")

        monkeypatch.setattr(workers, "usable_cores", lambda: 1)
        monkeypatch.setattr(workers, "_START_AFTER", 0)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        net = tiny_net()
        assert len(evaluation.score_stream(net, frontend.AudioClip(audio(4, 16000, 4), 16000),
                                           1)) == 4
        assert net._pool is None

    def test_workers_get_one_blas_thread_and_report_their_peak(self, monkeypatch):
        envs, popen = [], subprocess.Popen
        monkeypatch.setattr(subprocess, "Popen",
                            lambda *a, env, **kw: envs.append(env) or popen(*a, env=env, **kw))
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        before = dict(os.environ)
        net = pooled(tiny_net())
        try:
            evaluation.score_stream(net, frontend.AudioClip(audio(3, 16000, 5), 16000), 1)
            pids = [w.pid for w in net._pool.workers]
            # no worker holds this process's standard streams, which a reader of
            # its stdout (perfbench, a shell pipe) would otherwise wait on
            ours = {os.readlink(f"/proc/self/fd/{fd}") for fd in (0, 1, 2)}
            assert not ours & {os.readlink(f"/proc/{pid}/fd/{fd}") for pid in pids
                               for fd in (0, 1, 2)}
        finally:
            net._pool.close()
        assert dict(os.environ) == before
        one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                   "1")
        path = os.pathsep.join(map(os.path.abspath, sys.path))
        assert envs == [before | one_thread | {"PYTHONPATH": path}] * 2
        peaks = workers.worker_peaks_mb()
        assert all(10 < peaks[pid] < 500 for pid in pids)

    def test_pool_closes_when_its_bundle_is_collected(self, monkeypatch):
        net = pooled(tiny_net())
        evaluation.score_stream(net, frontend.AudioClip(audio(2, 16000, 6), 16000), 1)
        assert len(child_pids()) == 2
        del net
        assert child_pids() == set()

    def test_worker_dying_mid_call_raises_and_leaves_nothing(self, monkeypatch, tmp_path):
        # the pool's weight files and the workers' stderr files are made in tmp_path
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        net = pooled(tiny_net())
        clip = frontend.AudioClip(audio(3, 16000, 7), 16000)
        want = evaluation.score_stream(net, clip, 1)

        def no_such_forward(bundle, patches):  # not a `models` function: the workers fail
            raise AssertionError("run in this process")

        with pytest.raises(RuntimeError, match="(?s)pool worker exited with status 1: .*"
                                               "no attribute 'no_such_forward'") as info:
            workers.forward_blocks(net, clip, frontend.FRAMES_PER_SECOND, 3, no_such_forward)
        assert not isinstance(info.value, SawnetError)
        assert child_pids() == set()
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(workers, "_START_AFTER", 0)
        try:  # the next call starts a new pool
            assert evaluation.score_stream(net, clip, 1) == want
            assert len(child_pids()) == 2
        finally:
            net._pool.close()


class TestSharedUse:
    def test_threads_share_a_pool(self, monkeypatch):
        # more workers than cores, and threads switched often: each call still
        # gets its own clip's scores
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        net = tiny_net()
        clips = [frontend.AudioClip(audio(2 + i, 44100, 10 + i), 44100) for i in range(4)]
        want = [evaluation.score_stream(net, clip, 1) for clip in clips]
        pool_net, got, interval = pooled(net), {}, sys.getswitchinterval()

        def score(i):
            got[i] = [evaluation.score_stream(pool_net, clips[i], 1) for _ in range(3)]

        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(clips))]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pool_net._pool.close()
        assert not any(thread.is_alive() for thread in threads)
        assert [got[i] for i in range(len(clips))] == [[w] * 3 for w in want]

    def test_bad_sample_fails_the_clip_as_in_process(self, tmp_path):
        samples = audio(4, 16000, 8)
        samples[50000] = np.nan
        path = tmp_path / "nan.wav"
        path.write_bytes(encode_wav(samples, 16000, fmt="float32"))
        net = pooled(tiny_net())
        with WavReader(path, source_id="nan") as wav:
            eset, errors = transfer.extract_embeddings(net, [(wav, 0, 1)], 2)
        assert not eset.items and errors[0][1].startswith("DecodeError")
        assert child_pids() == set()  # a failed call closes the pool


_SCRIPT = """
import sys, time
import numpy as np
sys.path.insert(0, {tests!r})
from conftest import tiny_net
from sawnet import evaluation, frontend, workers

workers._START_AFTER = 0
net = tiny_net()
evaluation.score_stream(net, frontend.AudioClip(np.zeros(48000, np.float32), 16000), 1)
print(*(w.pid for w in net._pool.workers), flush=True)
if sys.argv[1] == "raise":
    raise RuntimeError("the script failed")
if sys.argv[1] == "hang":
    time.sleep(60)
"""


def _gone(pid: int) -> bool:
    """Whether process `pid` has exited (a zombie not yet reaped by init counts)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestNoWorkerOutlivesItsParent:
    @pytest.mark.parametrize("end", ["exit", "raise"])
    def test_exit_leaves_no_child(self, end):
        script = _SCRIPT.format(tests=str(Path(__file__).parent))
        proc = subprocess.run([sys.executable, "-c", script, end], capture_output=True,
                              text=True, env=_CLI_ENV, timeout=60)
        assert proc.returncode == (1 if end == "raise" else 0), proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 2 and all(map(_gone, pids))

    def test_workers_of_a_killed_parent_exit_on_stdin_eof(self):
        proc = subprocess.Popen([sys.executable, "-c",
                                 _SCRIPT.format(tests=str(Path(__file__).parent)), "hang"],
                                stdout=subprocess.PIPE, text=True, env=_CLI_ENV)
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 20
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, pids))
