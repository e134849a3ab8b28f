"""Command-line interface.

Subcommands: featurize, info, infer, detect, train-head, eval-cv.

Exit codes: 0 on success, 2 on data/model errors, 64 on usage errors.
`featurize`, `infer` and `detect` report a bad input file on stderr, go on with
the others and then exit 2. Diagnostics go to stderr; machine-readable output
goes to files or stdout.
File outputs are accompanied by a run manifest (command, resolved config,
tool version, input digests, for `featurize`, `infer` and `detect` the counts
of input files processed and failed, and for `infer` and `detect` the
`compute_dtype` the network ran in) with the timestamp isolated in one field
so repeated runs are byte-comparable. `detect` reads WAV inputs in
blocks, so its memory does not grow with the recording's length.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import load_bundle, load_spectrogram, save_spectrogram, write_container
from .errors import SawnetError
from .evaluation import check_positive_class, merge_events, score_spectrogram, score_stream
from .frontend import extract_patches, log_mel_spectrogram, resample_to_16k
from .models import WeightBundle, count_params, describe_layer, forward_batch
from .nn import softmax
from .transfer import TrainConfig, load_embeddings, run_cv, train_head
from .wavio import WavReader, decode_wav

_USAGE_EXIT = 64
_DATA_EXIT = 2


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


def _is_wav(path: Path) -> bool:
    """Whether a file starts like a WAV; anything else is read as a feature container."""
    with open(path, "rb") as fh:
        return fh.read(4) == b"RIFF"


def _load_spectrogram_any(path: Path):
    """Load a spectrogram from either a WAV file or a feature container."""
    if _is_wav(path):
        clip = resample_to_16k(decode_wav(path.read_bytes(), source_id=path.stem))
        return log_mel_spectrogram(clip)
    spec = load_spectrogram(path)
    if not spec.source_id:
        spec.source_id = path.stem
    return spec


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
    outputs = []
    for path in inputs:
        try:
            clip = resample_to_16k(decode_wav(path.read_bytes(), source_id=path.stem))
            spec = log_mel_spectrogram(clip)
        except (SawnetError, OSError) as e:
            _report_failure("featurize", path, e)
            failures += 1
            continue
        if args.format == "csv":
            out_path = out_dir / f"{path.stem}.csv"
            np.savetxt(out_path, spec.frames, delimiter=",", fmt="%.8e")
        else:
            out_path = out_dir / f"{path.stem}.csnw"
            save_spectrogram(out_path, spec)
        outputs.append(str(out_path))
    manifest = _file_manifest("featurize", {"format": args.format, "out_dir": str(out_dir)},
                              inputs, failures)
    manifest["outputs"] = outputs
    _write_json(out_dir / "featurize_manifest.json", manifest)
    return _DATA_EXIT if failures else 0


def cmd_info(args) -> int:
    bundle = load_bundle(args.model)
    spec = bundle.spec
    print(f"arch_id: {spec.arch_id}")
    print(f"num_classes: {spec.num_classes}")
    print(f"preproc_tag: {bundle.preproc_tag}")
    print(f"epsilon: {bundle.epsilon}")
    print(f"folded: {str(bundle.folded).lower()}")
    print("layers:")
    for layer in spec.layers:
        print(f"  {layer.name:8s} {layer.kind:16s}{describe_layer(layer)}")
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
    lines = []
    failures = 0
    for path in inputs:
        try:
            spec = _load_spectrogram_any(path)
            probs = np.mean(softmax(forward_batch(bundle, extract_patches(spec))), axis=0)
        except (SawnetError, OSError) as e:
            _report_failure("infer", path, e)
            failures += 1
            continue
        formatted = ", ".join(f"{p:.6f}" for p in probs)
        lines.append(
            f'{{"clip_id": {json.dumps(spec.source_id)}, '
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
            if _is_wav(path):
                with WavReader(path, source_id=path.stem) as wav:
                    scores = score_stream(bundle, wav, args.positive_class)
            else:
                spec = load_spectrogram(path)
                scores = score_spectrogram(bundle, spec, args.positive_class,
                                           clip_id=spec.source_id or path.stem)
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
    params = train_head(eset, cfg)
    # config echo lives in the container; the timestamped manifest goes in a
    # sidecar so repeated runs produce byte-identical weight files
    header = {
        "kind": "dense_head",
        "dim": eset.dim,
        "num_classes": eset.num_classes,
        "config": vars(cfg),
    }
    write_container(args.out, header, {"head/weights": params.weights, "head/bias": params.bias})
    _write_json(Path(args.out).with_suffix(".manifest.json"),
                _manifest("train-head", vars(cfg) | {"embeddings": args.embeddings},
                          [Path(args.embeddings)]))
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

    p = sub.add_parser("train-head", help="train the dense head on cached embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True, help="output container for the trained head")
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
