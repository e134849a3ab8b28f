"""Worker processes of one BLAS thread each: every child process sawnet starts.

A `Worker` is a fresh `sys.executable` running ``python -c CODE ARGS``. Its
environment is this one with one OpenBLAS, OpenMP and MKL thread and this
process's `sys.path` (absolute, in order) as PYTHONPATH, so it imports the
modules this process imports; `os.environ` itself is left as it is. It
inherits none of this process's standard streams: messages go to it pickled
on a pipe to its stdin, results come back pickled on a pipe from its stdout,
each with the worker's own peak memory (`worker_peaks_mb`), and its stderr
goes to an unnamed temporary file that is read only if it fails. A worker
that fails raises RuntimeError with that stderr, and `close_all` kills, reaps
and closes workers on every exit path. `transfer.run_cv` trains its fold heads
in such workers.

A `Pool` keeps one worker per usable core for one `WeightBundle`, for as long
as the bundle lives. `forward_blocks`, which `evaluation.score_stream` and
`transfer.extract_embeddings` run their forwards through, starts it only once
the bundle has forwarded `_START_AFTER` patches in this process (what starting
a pool costs), and only on two or more usable cores. Each worker maps the
bundle's folded tensors from `.npy` files written once; a call's blocks go to
the workers in contiguous runs of at most `_RUN_BLOCKS`, each with only the
input it reads (`frontend.block_window`), and come back in order, bit for bit
what this process computes.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import weakref
from collections import deque
from typing import Callable

import numpy as np

from . import frontend

# Patches a bundle forwards in this process before its pool starts: as long as
# starting it takes. On 2 cores (OpenBLAS), two workers took 0.22-0.26 s to
# start, import sawnet and map and check an aug_vggish bundle, and an aug
# patch took a median 13.6 ms in this process on two BLAS threads.
_START_AFTER = 18
# Blocks a worker is sent at a time, which bounds the input this process holds
# for one call at `usable_cores() * _RUN_BLOCKS` blocks, however long the clip.
_RUN_BLOCKS = 16
# The command a pool worker runs: `_serve` on the directory of its bundle.
_POOL_WORKER = "import sys; from sawnet.workers import _serve; _serve(sys.argv[1])"
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
    """One child process, named `name` in its errors; see the module docstring."""

    def __init__(self, name: str, code: str, *args: str, cwd=None):
        # imported here, so that commands which start no worker do not load them (0.5 MB)
        import subprocess
        import tempfile

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(map(os.path.abspath, sys.path)))
        self.name = name
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", code, *args], cwd=cwd, env=env,
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
        return RuntimeError(f"{self.name} exited with status {self._proc.returncode}: {err}")

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout, self._stderr):
            stream.close()


def close_all(workers: list[Worker]) -> None:
    """Kill, reap and close each of `workers`."""
    for worker in workers:
        worker.close()


def reply(value) -> None:
    """Send `value`, with this worker's peak memory, to the process that started it."""
    pickle.dump((value, _peak_mb()), sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.buffer.flush()


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
    """`workers` workers for `bundle`, each holding the bundle's folded network.

    The tensors go once to `.npy` files in a temporary directory (numpy starts
    their data on a 64-byte boundary), which each worker maps read-only and
    checks, and which are unlinked once every worker has them, so the workers
    share their pages. `close` kills and reaps the workers; it runs when the
    bundle is collected or the interpreter exits, if not before.
    """

    def __init__(self, bundle, workers: int):
        import tempfile

        self.workers: list[Worker] = []
        with tempfile.TemporaryDirectory(prefix="sawnet-pool-") as job:
            keys = list(bundle.params)
            for i, key in enumerate(keys):
                np.save(os.path.join(job, f"{i}.npy"), bundle.params[key])
            with open(os.path.join(job, "bundle.pkl"), "wb") as fh:
                pickle.dump((bundle.spec, bundle.epsilon, keys), fh)
            try:
                for _ in range(workers):
                    self.workers.append(Worker("pool worker", _POOL_WORKER, job))
                for worker in self.workers:
                    worker.receive()  # it has mapped the weights
            except BaseException:
                close_all(self.workers)
                raise
        self.close = weakref.finalize(bundle, close_all, self.workers)
        self._lock = threading.Lock()  # one call at a time on the workers' pipes

    def run(self, forward: str, clip: frontend.Source, blocks: list[frontend.Block],
            block: int, hop: int) -> list[np.ndarray]:
        """``models.<forward>(bundle, patches)`` for each array of
        `frontend.block_patches` over `blocks` of `clip`, in order.

        The blocks go out in `_runs`, round robin, and each run's input is read
        only when it is sent. Any failure closes the pool, since a worker may
        still hold a result.
        """
        outs, sent = [], deque()
        with self._lock:
            if not self.close.alive:  # a failed call closed it while this one waited
                raise RuntimeError("the pool was closed by a failed call")
            try:
                for i, run in enumerate(_runs(len(blocks), len(self.workers))):
                    if len(sent) == len(self.workers):
                        outs += sent.popleft().receive()
                    worker = self.workers[i % len(self.workers)]
                    worker.send((forward, *frontend.block_window(clip, blocks[run]), block, hop))
                    sent.append(worker)
                while sent:
                    outs += sent.popleft().receive()
            except BaseException:
                self.close()
                raise
        return outs


def _runs(n: int, workers: int) -> list[slice]:
    """`n` blocks in contiguous runs, as even as may be: a multiple of `workers`
    runs of at most `_RUN_BLOCKS`, or one run a block when there are fewer."""
    runs = min(n, workers * -(-n // (workers * _RUN_BLOCKS)))
    return [slice(i * n // runs, (i + 1) * n // runs) for i in range(runs)]


def _serve(job: str) -> None:
    """A pool worker: map the bundle in directory `job`, then answer each
    message `Pool.run` sends until stdin closes, which it also does when the
    parent dies."""
    from . import models

    with open(os.path.join(job, "bundle.pkl"), "rb") as fh:
        spec, epsilon, keys = pickle.load(fh)
    params = {key: np.load(os.path.join(job, f"{i}.npy"), mmap_mode="r")
              for i, key in enumerate(keys)}
    bundle = models.WeightBundle(spec, params, epsilon)
    reply(None)
    while True:
        try:
            forward, clip, run, block, hop = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        forward = getattr(models, forward)
        reply([forward(bundle, patches) for b in run
               for patches in frontend.block_patches(clip, b, block, hop)])


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
        return pool.run(forward.__name__, clip, clip_blocks, block, hop)
    outs = []
    for b in clip_blocks:
        for patches in frontend.block_patches(clip, b, block, hop):
            outs.append(forward(bundle, patches))
            bundle._scored += len(patches)
    return outs


def _pool(bundle, blocks: int) -> Pool | None:
    """`bundle`'s pool for a call of `blocks` blocks, or None to run it here."""
    if bundle._pool is not None and not bundle._pool.close.alive:  # closed by a failure
        bundle._pool = None
    if blocks < 2:
        return None
    if bundle._pool is None and bundle._scored >= _START_AFTER and (cores := usable_cores()) > 1:
        bundle._pool = Pool(bundle, cores)
    return bundle._pool
