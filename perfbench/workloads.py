"""The three workloads: inputs, set-up, one round, and the checks.

Each workload has four parts. `generate` (benchmark process) writes the
seeded inputs and returns their description. `setup` (workload process)
goes from a fresh import to the first result. `round` runs one whole round
of the same operations and returns its timings, its operation counts and
its outputs. `check` (benchmark process) compares a round's outputs with
the reference computations and returns the problems it found.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

import gen
import reference

clock = time.perf_counter
FLOAT64_LOGMEL_ATOL = 1e-10


def _load_program():
    import sawnet
    import sawnet.cli
    return sawnet


def _sampled_patch(frames: np.ndarray, start: int) -> np.ndarray:
    window = frames[start:start + 96]
    if len(window) < 96:
        window = np.concatenate([window, np.repeat(window[-1:], 96 - len(window), axis=0)])
    return window


def _clip_patches(frames: np.ndarray) -> list[np.ndarray]:
    """Non-overlapping 96-frame patches, or one edge-padded patch if shorter."""
    if len(frames) < 96:
        return [_sampled_patch(frames, 0)]
    return [frames[s:s + 96] for s in range(0, len(frames) - 95, 96)]


def _program_frames(data: bytes) -> np.ndarray:
    """The program's own log-mel of a WAV, used only as input to reference forwards."""
    from sawnet import frontend, wavio
    return frontend.log_mel_spectrogram(frontend.resample_to_16k(wavio.decode_wav(data))).frames


class DetectStream:
    """A resident aug_vggish detector serving 30 s stereo 44.1 kHz requests."""

    name = "detect-stream"
    requests = 3        # distinct 30 s clips per round, sent one at a time
    clip_s = 30
    threshold, gap = 0.5, 1
    fault_samples = 47950

    def generate(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        clips, patches = [], []
        for i in range(self.requests):
            frames, labels = gen.chainsaw_clip(rng, self.clip_s)
            name = f"req{i}"
            (work / f"{name}.wav").write_bytes(gen.wav_bytes(frames, 44100, "pcm16"))
            clips.append({"name": name, "labels": labels,
                          "sampled_second": int(rng.integers(0, self.clip_s))})
            patches += [gen.approx_patch(frames, 44100, labels.index(on)) for on in (0, 1)]
        params = gen.random_params(rng, "aug_vggish", folded=False)
        gen.calibrate_head(params, gen.bundle_layers("aug_vggish", folded=False), patches)
        gen.write_bundle(work / "aug.csnw", "aug_vggish", params, folded=False)
        # The known-fault clip does not depend on the seed.
        fault = gen.tone_clip(np.random.default_rng(47950), self.fault_samples / 16000, 16000, 1,
                              440.0)
        (work / "fault.wav").write_bytes(gen.wav_bytes(fault, 16000, "pcm16"))
        return {"clips": clips}

    def setup(self, work: Path, meta: dict):
        sawnet = _load_program()
        model = sawnet.bundle.load_bundle(work / "aug.csnw")
        requests = [(c["name"], (work / f"{c['name']}.wav").read_bytes(), c["labels"])
                    for c in meta["clips"]]
        first = sawnet.wavio.decode_wav(requests[0][1], source_id=requests[0][0])
        head = sawnet.frontend.AudioClip(first.samples[:5 * first.sample_rate], first.sample_rate)
        sawnet.evaluation.score_stream(model, head, 1)
        return {"sawnet": sawnet, "model": model, "requests": requests,
                "fault": (work / "fault.wav").read_bytes(), "fault_path": work / "fault.csnw"}

    def round(self, st) -> dict:
        sawnet, model = st["sawnet"], st["model"]
        ev, wavio = sawnet.evaluation, sawnet.wavio
        start = clock()
        rates, clips, scored = [], [], []
        for name, data, labels in st["requests"]:
            t0 = clock()
            clip = wavio.decode_wav(data, source_id=name)
            scores = ev.score_stream(model, clip, 1)
            events = ev.merge_events(scores, self.threshold, self.gap)
            rates.append(clip.duration_s / (clock() - t0))
            clips.append({"seconds": [s.second_index for s in scores],
                          "probs": [s.probability for s in scores],
                          "events": [[e.start_s, e.end_s, e.peak_probability] for e in events]})
            scored += [(s.probability, labels[s.second_index]) for s in scores]
        ap = ev.pr_curve(scored).average_precision
        seconds = self._fault_op(sawnet, model, st["fault"], st["fault_path"])
        elapsed = clock() - start
        expected = self.fault_samples // 16000
        return {"attempted": self.requests + 2, "failed": int(seconds != [expected, expected]),
                "samples": {"audio_x_rt": rates, "round_s": [elapsed]},
                "outputs": {"clips": clips, "ap": ap, "fault_seconds": seconds}}

    @staticmethod
    def _fault_op(sawnet, model, data: bytes, path: Path) -> list[int]:
        """Score one short 16 kHz clip from its WAV and from its featurized container."""
        ev, fe = sawnet.evaluation, sawnet.frontend
        clip = sawnet.wavio.decode_wav(data, source_id="fault")
        from_wav = len(ev.score_stream(model, clip, 1))
        sawnet.bundle.save_spectrogram(path, fe.log_mel_spectrogram(fe.resample_to_16k(clip)))
        from_container = len(ev.score_spectrogram(model, sawnet.bundle.load_spectrogram(path), 1))
        return [from_wav, from_container]

    def check(self, work: Path, meta: dict, out: dict) -> list[str]:
        problems = []
        _, params = gen.read_csnw(work / "aug.csnw")
        layers = reference.aug_layers(2)
        scored = []
        for spec, got in zip(meta["clips"], out["clips"]):
            name = spec["name"]
            data = (work / f"{name}.wav").read_bytes()
            expected = gen.samples_at_16k(data) // 16000
            if got["seconds"] != list(range(expected)):
                problems.append(f"{name}: scored seconds {len(got['seconds'])}, want {expected}")
                continue
            events = [list(e) for e in reference.merge_events(got["probs"], self.threshold,
                                                              self.gap)]
            if got["events"] != events:
                problems.append(f"{name}: events {got['events']} != brute force {events}")
            s = spec["sampled_second"]
            patch = _sampled_patch(_program_frames(data), 100 * s)
            want = reference.softmax(reference.forward(params, layers, patch))[1]
            if abs(got["probs"][s] - want) > 1e-4:
                problems.append(f"{name}: second {s} probability {got['probs'][s]} != {want}")
            scored += [(p, spec["labels"][i]) for i, p in enumerate(got["probs"])]
        if len(out["clips"]) != len(meta["clips"]):
            problems.append(f"{len(out['clips'])} requests answered of {len(meta['clips'])}")
        elif abs(out["ap"] - reference.average_precision(scored)) > 1e-12:
            problems.append(f"average precision {out['ap']} != brute force")
        return problems


class FeaturizeInfer:
    """`sawnet featurize` on mixed WAVs, then `sawnet infer` with a folded fcn_vggish."""

    name = "featurize-infer"
    # Lengths sit mid-way between patch-count steps, so the jitter never
    # changes the number of patches; format by slot keeps the resampling
    # work the same on every seed.
    lengths_s = (0.62, 1.46, 2.42, 3.38, 4.34, 5.30)
    formats = ((16000, 1, "pcm16"), (44100, 2, "pcm16"), (48000, 1, "float32"))

    def generate(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        (work / "wavs").mkdir()
        (work / "setup_wav").mkdir()
        clips, patches = [], []
        for i, base in enumerate(self.lengths_s):
            rate, channels, fmt = self.formats[i % len(self.formats)]
            seconds = base + rng.uniform(-0.15, 0.15)
            frames = gen.tone_clip(rng, seconds, rate, channels, rng.uniform(150.0, 3000.0))
            name = f"clip{i}_{rate}"
            data = gen.wav_bytes(frames, rate, fmt)
            (work / "wavs" / f"{name}.wav").write_bytes(data)
            clips.append({"name": name, "rate": rate, "audio_s": len(frames) / rate})
            patches.append(gen.approx_patch(frames, rate))
        params = gen.random_params(rng, "fcn_vggish", folded=True)
        gen.calibrate_head(params, gen.bundle_layers("fcn_vggish", folded=True), patches)
        gen.write_bundle(work / "fcn.csnw", "fcn_vggish", params, folded=True)
        (work / "setup_wav" / "first.wav").write_bytes((work / "wavs" / "clip0_16000.wav")
                                                       .read_bytes())
        return {"clips": clips}

    def setup(self, work: Path, meta: dict):
        sawnet = _load_program()
        probe = work / f"setup-{os.getpid()}"
        rc = sawnet.cli.main(["featurize", str(work / "setup_wav"), "--out-dir", str(probe)])
        rc |= sawnet.cli.main(["infer", "--model", str(work / "fcn.csnw"), str(probe),
                               "--out", str(probe / "first.jsonl")])
        if rc:
            raise RuntimeError(f"first featurize/infer exited {rc}")
        return {"sawnet": sawnet, "work": work,
                "audio_s": sum(c["audio_s"] for c in meta["clips"]), "n": len(meta["clips"])}

    def round(self, st) -> dict:
        cli, work = st["sawnet"].cli, st["work"]
        features, out = work / "features", work / "infer.jsonl"
        start = clock()
        rc_featurize = cli.main(["featurize", str(work / "wavs"), "--out-dir", str(features)])
        rc_infer = cli.main(["infer", "--model", str(work / "fcn.csnw"), str(features),
                             "--out", str(out)])
        end = clock()
        made = sorted(features.glob("*.csnw"))
        rows = out.read_text().splitlines() if rc_infer == 0 else []
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in made}
        failed = (st["n"] - len(made) if rc_featurize else 0) + st["n"] - len(rows)
        return {"attempted": 2 * st["n"], "failed": failed,
                "samples": {"audio_x_rt": [st["audio_s"] / (end - start)],
                            "round_s": [end - start]},
                "outputs": {"rows": rows, "containers": digests,
                            "exit": [rc_featurize, rc_infer]}}

    def check(self, work: Path, meta: dict, out: dict) -> list[str]:
        problems = []
        if out["exit"] != [0, 0]:
            problems.append(f"featurize/infer exit codes {out['exit']}")
        _, params = gen.read_csnw(work / "fcn.csnw")
        params = {k: v.astype(np.float64) for k, v in params.items()}
        layers = reference.fold_layers(reference.fcn_layers(2))
        rows = {}
        for line in out["rows"]:
            row = json.loads(line)
            rows[row["clip_id"]] = row
        for clip in meta["clips"]:
            name = clip["name"]
            data = (work / "wavs" / f"{name}.wav").read_bytes()
            _, stored = gen.read_csnw(work / "features" / f"{name}.csnw")
            frames = stored["logmel"]
            n = gen.samples_at_16k(data)
            if frames.shape != (1 + (n - 400) // 160, 64):
                problems.append(f"{name}: {frames.shape} frames for {n} samples")
                continue
            if clip["rate"] == 16000:
                want = reference.log_mel(gen.pcm16_samples(data))
                # One float32 ulp of storage, plus the float64 rounding of two
                # FFT paths: ln(energy + 0.01) near 0 keeps that rounding as an
                # absolute error (up to 1e-12 seen) while the ulp there is 1e-15.
                tol = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64) \
                    + FLOAT64_LOGMEL_ATOL
                over = np.abs(frames - want) / tol
                if np.any(over > 1.0):
                    at = np.unravel_index(np.argmax(over), over.shape)
                    problems.append(f"{name}: stored log-mel {frames[at]!r} at {at} != "
                                    f"reference {want[at]!r}")
            row = rows.get(name)
            if row is None:
                problems.append(f"{name}: no inference row")
                continue
            probs = np.array(row["probs"])
            if abs(probs.sum() - 1.0) > 1e-6 * len(probs) or probs[row["predicted"]] != probs.max():
                problems.append(f"{name}: row {row} does not sum to 1 or argmax mismatch")
            want = np.mean([reference.softmax(reference.forward(params, layers, p))
                            for p in _clip_patches(frames)], axis=0)
            if np.max(np.abs(probs - want)) > 1e-4:
                problems.append(f"{name}: probabilities {probs} != reference {want}")
        return problems


class Esc50Transfer:
    """Embed ESC-50 named clips, then 5-fold `sawnet eval-cv` on a 2000-clip cache."""

    name = "esc50-transfer"
    clips, clip_s = 6, 5
    cv_clips, classes, dim, folds = 2000, 50, 1024, 5

    def generate(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        gen.write_bundle(work / "aug.csnw", "aug_vggish",
                         gen.random_params(rng, "aug_vggish", folded=False), folded=False)
        gen.embedding_cache(work / "cache.csnw", rng, self.cv_clips, self.classes, self.dim,
                            self.folds)
        (work / "clips").mkdir()
        names = []
        for i in range(self.clips):
            label = int(rng.integers(0, self.classes))
            name = f"{1 + i % self.folds}-{int(rng.integers(100000, 999999))}-A-{label}.wav"
            frames = gen.tone_clip(rng, self.clip_s, 44100, 1, 200.0 + 40.0 * label)
            (work / "clips" / name).write_bytes(gen.wav_bytes(frames, 44100, "pcm16"))
            names.append(name)
        return {"names": names}

    def setup(self, work: Path, meta: dict):
        sawnet = _load_program()
        model = sawnet.bundle.load_bundle(work / "aug.csnw")
        data = [(n, (work / "clips" / n).read_bytes()) for n in meta["names"]]
        first = sawnet.wavio.decode_wav(data[0][1], source_id=data[0][0])
        _, errors = sawnet.transfer.extract_embeddings(model, [(first, 0, 1)], self.classes)
        if errors:
            raise RuntimeError(f"first embedding failed: {errors}")
        return {"sawnet": sawnet, "model": model, "data": data, "work": work}

    def round(self, st) -> dict:
        sawnet, work = st["sawnet"], st["work"]
        transfer = sawnet.transfer
        marks = []

        def labelled_clips():
            # extract_embeddings asks for the next clip once it is done with
            # the last one, so the gaps between these marks time each clip.
            for name, data in st["data"]:
                marks.append(clock())
                clip = sawnet.wavio.decode_wav(data, source_id=name)
                yield clip, int(name[:-4].rsplit("-", 1)[1]), transfer.assign_esc50_fold(name)

        start = clock()
        eset, errors = transfer.extract_embeddings(st["model"], labelled_clips(), self.classes)
        marks.append(clock())
        transfer.save_embeddings(work / "embedded.csnw", eset)
        report = work / "cv.json"
        rc = sawnet.cli.main(["eval-cv", "--embeddings", str(work / "cache.csnw"),
                              "--folds", str(self.folds), "--out", str(report)])
        end = clock()
        cv = json.loads(report.read_text()) if rc == 0 else {}
        return {"attempted": len(st["data"]) + 1, "failed": len(errors) + int(rc != 0),
                "samples": {"audio_x_rt": [self.clip_s / (b - a)
                                           for a, b in zip(marks, marks[1:])],
                            "round_s": [end - start]},
                "outputs": {"errors": errors,
                            "items": [[i.clip_id, i.fold, i.label, i.vector.tolist()]
                                      for i in eset.items],
                            "folds": cv.get("folds"), "mean_accuracy": cv.get("mean_accuracy")}}

    def check(self, work: Path, meta: dict, out: dict) -> list[str]:
        problems = [f"embedding failed: {e}" for e in out["errors"]]
        _, params = gen.read_csnw(work / "aug.csnw")
        layers = reference.aug_layers(2)
        _, cached = gen.read_csnw(work / "embedded.csnw")
        items = {i[0]: i for i in out["items"]}
        for name in meta["names"]:
            item = items.get(name)
            if item is None:
                problems.append(f"{name}: no embedding")
                continue
            _, fold, label, vector = item
            if fold != int(name.split("-")[0]) or label != int(name[:-4].split("-")[3]):
                problems.append(f"{name}: fold {fold} / label {label} do not match the name")
            frames = _program_frames((work / "clips" / name).read_bytes())
            want = np.mean([reference.forward(params, layers, p, stop_after="fc1")
                            for p in _clip_patches(frames)], axis=0)
            if np.max(np.abs(np.array(vector) - want)) > 1e-4:
                problems.append(f"{name}: embedding differs from reference by "
                                f"{np.max(np.abs(np.array(vector) - want)):.3g}")
            if not np.array_equal(cached[name], np.float32(vector)):
                problems.append(f"{name}: cached embedding differs from the returned one")
        folds = out["folds"] or []
        if sorted(f["num_clips"] for f in folds) != [self.cv_clips // self.folds] * self.folds:
            problems.append(f"fold sizes {[f['num_clips'] for f in folds]}")
        if not (out["mean_accuracy"] or 0.0) >= 0.95:
            problems.append(f"mean accuracy {out['mean_accuracy']} < 0.95")
        return problems


WORKLOADS = {w.name: w for w in (DetectStream(), FeaturizeInfer(), Esc50Transfer())}


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
