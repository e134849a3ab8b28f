"""Command-line interface.

Subcommands: featurize, info, infer, detect, train-head, eval-cv. `train-head`
writes a bundle, its `--model` with the trained head (`models.with_head`).

Exit codes: 0 on success, 2 on data/model errors, 64 on usage errors.
`featurize`, `infer` and `detect` report a bad input file on stderr, go on with
the others and then exit 2. Diagnostics go to stderr; machine-readable output
goes to files or stdout.
File outputs are accompanied by a run manifest (command, resolved config,
tool version, input digests, for `featurize`, `infer` and `detect` the counts
of input files processed and failed, for `infer` and `detect` the
`compute_dtype` the network ran in, and for `train-head` and `eval-cv` the
`head_dtype` the head trained in) with the timestamp isolated in one field
so repeated runs are byte-comparable. `infer` and `detect` open each input
with `_open_source`, a WAV as a `wavio.WavReader` and anything else as a
loaded feature container, and read either kind the same way, a block at a
time through `frontend.patch_blocks`: memory grows with a recording's length
only by the frames `featurize` writes and the rows a container holds. `infer`
runs all but the last stage of `bundle.plan` on each block as it reads it
and the last stage on calls shared across inputs; each input still fails on
its own and is averaged over its own patches only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import load_bundle, load_spectrogram, save_bundle, save_spectrogram
from .errors import ConfigError, SawnetError, ValidationError
from .evaluation import check_positive_class, merge_events, score_stream
from .frontend import (PREPROC_TAG, LogMelSpectrogram, log_mel_blocks, patch_blocks,
                       resampled_length)
from .models import WeightBundle, count_params, describe_layer, run_stages, with_head
from .nn import softmax
from .transfer import TrainConfig, head_dtype, load_embeddings, run_cv, train_head
from .wavio import WavReader

_USAGE_EXIT = 64
_DATA_EXIT = 2
_FEATURIZE_FRAMES = 1000  # log-mel frames per block `featurize` computes: 10 s of audio


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _unit_interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 1]")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} must be >= 0")
    return value


def _collect_inputs(paths: list[str], suffixes: tuple[str, ...]) -> list[Path]:
    """Expand files and (non-recursive) directories, lexicographically sorted."""
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.extend(sorted(q for q in p.iterdir()
                                if q.is_file() and q.suffix.lower() in suffixes))
        else:
            found.append(p)
    return sorted(found, key=lambda q: str(q))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest(command: str, config: dict, inputs: list[Path]) -> dict:
    return {
        "command": command,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs if p.is_file()},
    }


def _file_manifest(command: str, config: dict, inputs: list[Path], failures: int,
                   bundle: WeightBundle | None = None) -> dict:
    """`_manifest` plus the counts of input files processed and failed, and the
    dtype `bundle` computed in."""
    manifest = _manifest(command, config, inputs)
    manifest["files_ok"] = len(inputs) - failures
    manifest["files_failed"] = failures
    if bundle is not None:
        manifest["compute_dtype"] = str(bundle.dtype)
    return manifest


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _open_source(path: Path):
    """The clip in an `infer` or `detect` input, for a ``with`` block: a
    `WavReader` on a file that starts like a WAV, anything else loaded as a
    feature container. Either is named by the file's stem, unless the
    container records a `source_id`."""
    with open(path, "rb") as fh:
        if fh.read(4) == b"RIFF":
            return WavReader(path, source_id=path.stem)
    spec = load_spectrogram(path)
    spec.source_id = spec.source_id or path.stem
    return nullcontext(spec)


def _report_failure(command: str, path: Path, error: Exception) -> None:
    print(f"{command}: {path}: {type(error).__name__}: {error}", file=sys.stderr)


def cmd_featurize(args) -> int:
    inputs = _collect_inputs(args.inputs, (".wav",))
    out_dir = Path(args.out_dir)
    if not inputs:
        print("featurize: no input files given", file=sys.stderr)
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    written: dict[Path, Path] = {}  # each output: the input it was featurized from
    dtype = np.float64 if args.format == "csv" else np.float32  # as the frames are written
    suffix = ".csv" if args.format == "csv" else ".csnw"
    for path in inputs:
        out_path = out_dir / f"{path.stem}{suffix}"
        try:
            if out_path in written:
                raise ConfigError(f"{out_path} is already written from {written[out_path]}")
            with WavReader(path, source_id=path.stem) as wav:
                frames = np.concatenate([block.astype(dtype, copy=False)
                                         for block in log_mel_blocks(wav, _FEATURIZE_FRAMES)])
                spec = LogMelSpectrogram(frames, wav.source_id,
                                         resampled_length(wav.num_samples, wav.sample_rate))
        except (SawnetError, OSError) as e:
            _report_failure("featurize", path, e)
            failures += 1
            continue
        if args.format == "csv":
            np.savetxt(out_path, spec.frames, delimiter=",", fmt="%.8e")
        else:
            save_spectrogram(out_path, spec)
        written[out_path] = path
    manifest = _file_manifest("featurize", {"format": args.format, "out_dir": str(out_dir)},
                              inputs, failures)
    manifest["outputs"] = list(map(str, written))
    _write_json(out_dir / "featurize_manifest.json", manifest)
    return _DATA_EXIT if failures else 0


def cmd_info(args) -> int:
    bundle = load_bundle(args.model)
    spec = bundle.spec
    print(f"arch_id: {spec.arch_id}")
    print(f"num_classes: {spec.num_classes}")
    print(f"preproc_tag: {PREPROC_TAG}")
    print(f"epsilon: {bundle.epsilon}")
    print("layers:")
    for layer in spec.layers:
        print(f"  {layer.name:8s} {layer.kind:16s}{describe_layer(layer)}")
    for start, stop, per_call in bundle.plan:
        print(f"stage: {spec.layers[start].name}..{spec.layers[stop - 1].name} x{per_call}")
    print(f"embedding_dim: {spec.embedding_dim}")
    print(f"trainable_params: {count_params(spec)}")
    print(f"compute_dtype: {bundle.dtype}")
    print(f"weight_bytes: {bundle.nbytes}")
    return 0


def _emit_lines(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_infer(args) -> int:
    bundle = load_bundle(args.model)
    inputs = _collect_inputs(args.inputs, (".wav", ".csnw"))
    front, last = bundle.plan[:-1], bundle.plan[-1]
    pending: list[tuple[int, np.ndarray]] = []  # (input index, last stage's input) not yet run
    rows: dict[int, tuple[str, list[np.ndarray]]] = {}  # input index -> clip id, rows so far

    def run() -> None:
        probs = softmax(run_stages(bundle, np.concatenate([x for _, x in pending]), (last,)))
        start = 0
        for i, x in pending:
            rows[i][1].append(probs[start:start + len(x)])
            start += len(x)
        pending.clear()

    failures = 0
    for i, path in enumerate(inputs):
        try:
            with _open_source(path) as clip:
                rows[i] = (clip.source_id, [])
                for patches in patch_blocks(clip, bundle.plan[0].per_call):
                    x = run_stages(bundle, patches[:, None], front) if front else patches[:, None]
                    while len(x):
                        room = last.per_call - sum(len(p) for _, p in pending)
                        pending.append((i, x[:room]))
                        x = x[room:]
                        if len(pending[-1][1]) == room:
                            run()
        except (SawnetError, OSError) as e:
            _report_failure("infer", path, e)
            failures += 1
            rows.pop(i, None)
            pending[:] = [(j, p) for j, p in pending if j != i]
    if pending:
        run()
    lines = []
    for clip_id, blocks in rows.values():
        probs = np.concatenate(blocks).mean(axis=0)
        formatted = ", ".join(f"{p:.6f}" for p in probs)
        lines.append(
            f'{{"clip_id": {json.dumps(clip_id)}, '
            f'"predicted": {int(np.argmax(probs))}, "probs": [{formatted}]}}'
        )
    _emit_lines(lines, args.out)
    if args.out:
        _write_json(Path(args.out).with_suffix(".manifest.json"),
                    _file_manifest("infer", {"model": args.model}, inputs, failures, bundle))
    return _DATA_EXIT if failures else 0


def cmd_detect(args) -> int:
    bundle = load_bundle(args.model)
    check_positive_class(args.positive_class, bundle.spec.num_classes)
    inputs = _collect_inputs(args.inputs, (".wav", ".csnw"))
    events = []
    failures = 0
    for path in inputs:
        try:
            with _open_source(path) as clip:
                scores = score_stream(bundle, clip, args.positive_class)
        except (SawnetError, OSError) as e:
            _report_failure("detect", path, e)
            failures += 1
            continue
        events.extend(merge_events(scores, args.threshold, args.gap))
    events.sort(key=lambda e: (e.clip_id, e.start_s))
    lines = [
        f'{{"clip_id": {json.dumps(e.clip_id)}, "start_s": {e.start_s}, '
        f'"end_s": {e.end_s}, "peak_prob": {e.peak_probability:.6f}}}'
        for e in events
    ]
    _emit_lines(lines, args.out)
    if args.out:
        config = {"model": args.model, "threshold": args.threshold, "gap": args.gap,
                  "positive_class": args.positive_class}
        _write_json(Path(args.out).with_suffix(".manifest.json"),
                    _file_manifest("detect", config, inputs, failures, bundle))
    return _DATA_EXIT if failures else 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                       epochs=args.epochs, seed=args.seed, l2=args.l2)


def cmd_train_head(args) -> int:
    eset = load_embeddings(args.embeddings)
    cfg = _train_config(args)
    model = load_bundle(args.model)
    if eset.dim != model.spec.embedding_dim:
        raise ValidationError(f"{eset.dim}-d embeddings for a {model.spec.embedding_dim}-d model")
    # the timestamped manifest goes in a sidecar, so repeated runs write identical bundles
    save_bundle(with_head(model, train_head(eset, cfg)), args.out)
    config = vars(cfg) | {"embeddings": args.embeddings, "model": args.model}
    manifest = _manifest("train-head", config, [Path(args.embeddings), Path(args.model)])
    manifest["head_dtype"] = str(head_dtype(eset))
    _write_json(Path(args.out).with_suffix(".manifest.json"), manifest)
    return 0


def cmd_eval_cv(args) -> int:
    eset = load_embeddings(args.embeddings)
    cfg = _train_config(args)
    results, mean_accuracy = run_cv(eset, args.folds, cfg)
    report = _manifest("eval-cv", vars(cfg) | {"folds": args.folds,
                                               "embeddings": args.embeddings},
                       [Path(args.embeddings)])
    report["seed"] = cfg.seed
    report["aggregation"] = "mean-patch-embedding"
    report["f1_variant"] = "macro"
    report["head_dtype"] = str(head_dtype(eset))
    report["folds"] = [
        {"fold": r.fold, "accuracy": r.accuracy, "macro_f1": r.macro_f1,
         "num_clips": len(r.per_clip_scores)}
        for r in results
    ]
    report["mean_accuracy"] = mean_accuracy
    _write_json(Path(args.out), report)
    if args.csv:
        rows = ["fold,accuracy,macro_f1,num_clips"]
        rows += [f"{r.fold},{r.accuracy:.6f},{r.macro_f1:.6f},{len(r.per_clip_scores)}"
                 for r in results]
        rows.append(f"mean,{mean_accuracy:.6f},,")
        Path(args.csv).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def _add_train_flags(sub) -> None:
    sub.add_argument("--lr", type=float, default=0.01, help="SGD learning rate")
    sub.add_argument("--batch-size", type=int, default=32)
    sub.add_argument("--epochs", type=int, default=50)
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--l2", type=float, default=1e-4, help="L2 penalty on head weights")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sawnet", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sawnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("featurize", help="WAV files to log-mel spectrograms")
    p.add_argument("inputs", nargs="*", help="WAV files or directories of WAVs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("info", help="describe a weight bundle")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("infer", help="clip-level class probabilities")
    p.add_argument("inputs", nargs="+", help="WAV or spectrogram (.csnw) inputs")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("detect", help="per-second event detection")
    p.add_argument("inputs", nargs="+", help="WAV or spectrogram (.csnw) inputs")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=_unit_interval, default=0.5)
    p.add_argument("--gap", type=_nonneg_int, default=0,
                   help="max below-threshold seconds bridged inside one event")
    p.add_argument("--positive-class", type=_nonneg_int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train-head", help="train a model's classifier on cached embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--model", required=True, help="the bundle the embeddings came from")
    p.add_argument("--out", required=True, help="output weight bundle")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_head)

    p = sub.add_parser("eval-cv", help="k-fold cross-validation on cached embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--csv", default=None, help="optional CSV summary path")
    _add_train_flags(p)
    p.set_defaults(func=cmd_eval_cv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except SawnetError as e:
        print(f"sawnet {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return _DATA_EXIT
    except OSError as e:
        print(f"sawnet {args.command}: {e}", file=sys.stderr)
        return _DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
