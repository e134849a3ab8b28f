"""Worker processes of one BLAS thread each: every child process sawnet starts.

A `Pool` writes its named arrays once to `.npy` files in a temporary
directory (numpy starts their data on a 64-byte boundary). Each of its
`Worker`s is a fresh `sys.executable` running `_serve`: it maps the files
read-only, so the workers share their pages, builds what it holds once with
the pool's module-level setup function, and answers the ``(function, args)``
calls of `Pool.map`. A worker's environment is this one with one OpenBLAS,
OpenMP and MKL thread and this process's `sys.path` (absolute, in order) as
PYTHONPATH; `os.environ` itself is left as it is. It inherits none of this
process's standard streams: calls and results go pickled on pipes to its
stdin and from its stdout, each result with the worker's own peak memory
(`worker_peaks_mb`), and its stderr goes to an unnamed temporary file that
is read only if it fails, into the RuntimeError the failure raises.

`transfer.run_cv` trains its fold heads on a pool over its stacked rows. A
bundle's pool holds its `WeightBundle`, one worker per usable core, for as
long as the bundle lives. `forward_blocks`, which `evaluation.score_stream`
and `transfer.extract_embeddings` run their forwards through, starts it only
once the bundle has forwarded `_START_AFTER` patches in this process (what
starting a pool costs), and only on two or more usable cores. A call's blocks
go to the workers in contiguous runs of at most `_RUN_BLOCKS`, each with only
the input it reads (`frontend.block_window`), and come back in order, bit for
bit what this process computes.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import weakref
from collections import deque
from typing import Callable, Iterable

import numpy as np

from . import frontend, models

# Patches a bundle forwards in this process before its pool starts: as long as
# starting it takes. On 2 cores (OpenBLAS), two workers took 0.22-0.26 s to
# start, import sawnet and map and check an aug_vggish bundle, and an aug
# patch took a median 13.6 ms in this process on two BLAS threads.
_START_AFTER = 18
# Blocks a worker is sent at a time, which bounds the input this process holds
# for one call at `usable_cores() * _RUN_BLOCKS` blocks, however long the clip.
_RUN_BLOCKS = 16
# The command every worker runs: `_serve` on its pool's job directory.
_SERVE = "import sys; from sawnet.workers import _serve; _serve(sys.argv[1])"
_PEAKS_MB: dict[int, float] = {}  # `worker_peaks_mb`


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_peaks_mb() -> dict[int, float]:
    """The peak memory (`VmHWM`, MB) that each worker this process started last
    reported, by pid: memory that this process's own peak leaves out."""
    return dict(_PEAKS_MB)


class Worker:
    """One child process running `_serve` on directory `job`; see the module docstring."""

    def __init__(self, job: str):
        # imported here, so that commands which start no worker do not load them (0.5 MB)
        import subprocess
        import tempfile

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(map(os.path.abspath, sys.path)))
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", _SERVE, job], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr)
        except BaseException:
            self._stderr.close()
            raise
        self.pid = self._proc.pid

    def send(self, message) -> None:
        try:
            pickle.dump(message, self._proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self._proc.stdin.flush()
        except BrokenPipeError:
            raise self._failed() from None

    def receive(self):
        """The worker's next result, once it has sent it."""
        try:
            value, peak_mb = pickle.load(self._proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise self._failed() from None
        _PEAKS_MB[self.pid] = peak_mb
        return value

    def _failed(self) -> RuntimeError:
        self._proc.kill()  # a no-op once it has exited
        self._proc.wait()
        self._stderr.seek(0)
        err = self._stderr.read().decode(errors="replace").strip()
        return RuntimeError(f"pool worker exited with status {self._proc.returncode}: {err}")

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout, self._stderr):
            stream.close()


def close_all(workers: list[Worker]) -> None:
    """Kill, reap and close each of `workers`."""
    for worker in workers:
        worker.close()


def _peak_mb() -> float | None:
    """This process's `VmHWM` in MB, or None where /proc does not give it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


class Pool:
    """`workers` workers, each holding ``setup(arrays mapped read-only, state)``.

    `setup` is a module-level function and `state` is picklable. The arrays'
    files are unlinked once every worker has built what it holds. `close`
    kills and reaps the workers; it runs when the pool is collected or the
    interpreter exits, if not before.
    """

    def __init__(self, setup: Callable, arrays: dict[str, np.ndarray], state, workers: int):
        import tempfile

        self.workers: list[Worker] = []
        with tempfile.TemporaryDirectory(prefix="sawnet-pool-") as job:
            keys = list(arrays)
            for i, key in enumerate(keys):
                np.save(os.path.join(job, f"{i}.npy"), arrays[key])
            with open(os.path.join(job, "pool.pkl"), "wb") as fh:
                pickle.dump((setup, keys, state), fh)
            try:
                for _ in range(workers):
                    self.workers.append(Worker(job))
                for worker in self.workers:
                    worker.receive()  # it has built what it holds
            except BaseException:
                close_all(self.workers)
                raise
        self.close = weakref.finalize(self, close_all, self.workers)
        self._lock = threading.Lock()  # one `map` at a time on the workers' pipes

    def map(self, function: Callable, calls: Iterable[tuple]) -> list:
        """``function(held, *args)`` for each `args` of `calls`, in order.

        `function` is a module-level function. The calls go to the workers
        round robin, each taken from `calls` only when it is sent. Any failure
        closes the pool, since a worker may still hold a result.
        """
        outs, sent = [], deque()
        with self._lock:
            if not self.close.alive:  # a failed call closed it while this one waited
                raise RuntimeError("the pool was closed by a failed call")
            try:
                for i, args in enumerate(calls):
                    worker = self.workers[i % len(self.workers)]
                    worker.send((function, args))
                    sent.append(worker)
                    if len(sent) == len(self.workers):  # before the next call is taken
                        outs.append(sent.popleft().receive())
                while sent:
                    outs.append(sent.popleft().receive())
            except BaseException:
                self.close()
                raise
        return outs


def _serve(job: str) -> None:
    """A pool worker: build what it holds from directory `job`, then answer
    each call `Pool.map` sends until stdin closes, which it also does when the
    parent dies."""

    def reply(value) -> None:
        pickle.dump((value, _peak_mb()), sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
        sys.stdout.buffer.flush()

    with open(os.path.join(job, "pool.pkl"), "rb") as fh:
        setup, keys, state = pickle.load(fh)
    held = setup({key: np.load(os.path.join(job, f"{i}.npy"), mmap_mode="r")
                  for i, key in enumerate(keys)}, state)
    reply(None)
    while True:
        try:
            function, args = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        reply(function(held, *args))


def _bundle(params: dict[str, np.ndarray], state) -> models.WeightBundle:
    """What a bundle's pool worker holds: the `WeightBundle` on `params`."""
    spec, epsilon = state
    return models.WeightBundle(spec, params, epsilon)


def _forward_run(bundle, forward: str, clip: frontend.Source, run: list[frontend.Block],
                 block: int, hop: int) -> list[np.ndarray]:
    """``models.<forward>(bundle, patches)`` for each array of
    `frontend.block_patches` over the blocks `run` of `clip`, in order."""
    forward = getattr(models, forward)
    return [forward(bundle, patches) for b in run
            for patches in frontend.block_patches(clip, b, block, hop)]


def forward_blocks(bundle, clip: frontend.Source, hop: int, count: int | None,
                   forward: Callable) -> list[np.ndarray]:
    """``forward(bundle, patches)`` for each array of ``frontend.patch_blocks(clip,
    bundle.plan[0].per_call, hop, count)``, in order: in this process, or, for
    two or more blocks, by `bundle`'s pool (started here if it is due), which
    runs `models` function ``forward.__name__`` on the same arrays."""
    block = bundle.plan[0].per_call
    clip_blocks = frontend.blocks(clip, block, hop, count)
    pool = _pool(bundle, len(clip_blocks))
    if pool is not None:
        calls = ((forward.__name__, *frontend.block_window(clip, clip_blocks[run]), block, hop)
                 for run in _runs(len(clip_blocks), len(pool.workers)))
        return [out for outs in pool.map(_forward_run, calls) for out in outs]
    outs = []
    for b in clip_blocks:
        for patches in frontend.block_patches(clip, b, block, hop):
            outs.append(forward(bundle, patches))
            bundle._scored += len(patches)
    return outs


def _runs(n: int, workers: int) -> list[slice]:
    """`n` blocks in contiguous runs, as even as may be: a multiple of `workers`
    runs of at most `_RUN_BLOCKS`, or one run a block when there are fewer."""
    runs = min(n, workers * -(-n // (workers * _RUN_BLOCKS)))
    return [slice(i * n // runs, (i + 1) * n // runs) for i in range(runs)]


def _pool(bundle, blocks: int) -> Pool | None:
    """`bundle`'s pool for a call of `blocks` blocks, or None to run it here."""
    if bundle._pool is not None and not bundle._pool.close.alive:  # closed by a failure
        bundle._pool = None
    if blocks < 2:
        return None
    if bundle._pool is None and bundle._scored >= _START_AFTER and (cores := usable_cores()) > 1:
        bundle._pool = Pool(_bundle, bundle.params, (bundle.spec, bundle.epsilon), cores)
    return bundle._pool
