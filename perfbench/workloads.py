"""Record sets of the three benchmark workloads, their ground truth and output checks.

A workload is a fixed list of records. Each record names the public driver
it goes through (denoise, decompose or segment), its noisy input, the clean
record and, for denoise records, the harmonic amplitude functions (HAFs)
it was built from.

Every noise vector and random draw comes from a fixed seed in this file,
not from the benchmark's --seed. The LM fit's cost depends on the noise
vector far more than a run can average out: the 4 s record took 21 to 200
iterations over eight noise seeds, the ECG record 63 to 200 over three,
and a seeded synthetic-mix set of 37 records ran at 2370 to 3330 samples/s
over three seeds. With seeded noise the seed-to-seed spread of the time
metrics would exceed any bound a regression check can use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tvshape import add_noise, preset
from tvshape.generators import SyntheticSpec, generate
from tvshape.pipeline import PipelineConfig
from tvshape.signals import RealSignal

SYNTHETIC_FS = 2000.0
DENOISE_KINDS = ("tv_denoise_s1", "tv_denoise_s2", "tv_denoise_s3", "tv_denoise_s4")

# synthetic-mix composition: rounds of the four denoise families, plus
# segmentation and two-component decomposition records
MIX_DENOISE_ROUNDS = 2
MIX_SEGMENT_RECORDS = 3
MIX_DECOMPOSE_RECORDS = 1
MIX_SEED = 0

# fixed noise seeds; EEG and ECG use the seeds test_criterion_6 uses
LONG_NOISE_SEED = 0
EEG_NOISE_SEED, ECG_NOISE_SEED, IP_NOISE_SEED = 0, 1, 2
WARMUP_NOISE_SEED = 0

# criterion 6 tolerances on the IP decomposition's sorted ridge means, Hz
IP_RIDGE_TARGETS = ((0.25, 0.05), (1.4, 0.1))


@dataclass
class Record:
    name: str
    driver: str                       # denoise | decompose | segment
    signal: RealSignal                # noisy input the driver receives
    clean: np.ndarray                 # clean record, mean removed
    cfg: PipelineConfig
    alphas: dict[int, np.ndarray] | None = None   # true HAFs of a denoise record
    K: int = 1                        # components asked of decompose
    t_transition: float | None = None
    ridge_targets: tuple | None = None


def _generated(name, driver, spec, snr_db, noise_seed, cfg, gen_seed=None) -> Record:
    x, gt = generate(spec, seed=gen_seed)
    return Record(
        name=name,
        driver=driver,
        signal=add_noise(x, snr_db, noise_seed),
        clean=x.samples,
        cfg=cfg,
        alphas=dict(gt.components[0].alphas) if driver == "denoise" else None,
        K=len(gt.components),
        t_transition=gt.t_transition,
    )


def synthetic_mix() -> list[Record]:
    cfg = preset("synthetic")
    n_seeds = 4 * MIX_DENOISE_ROUNDS + 3 * MIX_SEGMENT_RECORDS + MIX_DECOMPOSE_RECORDS
    seeds = iter(int(s) for s in np.random.SeedSequence(MIX_SEED).generate_state(n_seeds))
    records = []
    for k in range(MIX_DENOISE_ROUNDS):
        for kind in DENOISE_KINDS:
            spec = SyntheticSpec(kind, duration=1.0, fs=SYNTHETIC_FS)
            records.append(_generated(f"{kind[-2:]}#{k}", "denoise", spec, 10.0, next(seeds), cfg))
    for k in range(MIX_SEGMENT_RECORDS):
        r = int(np.random.default_rng(next(seeds)).integers(3, 7))
        spec = SyntheticSpec(
            "sharp_transition", duration=1.0, fs=SYNTHETIC_FS,
            params={"draw": True, "kappa": 50.0, "r": r},
        )
        records.append(
            _generated(f"segment#{k}", "segment", spec, 10.0, next(seeds), cfg, gen_seed=next(seeds))
        )
    for k in range(MIX_DECOMPOSE_RECORDS):
        spec = SyntheticSpec("multicomponent", duration=1.0, fs=SYNTHETIC_FS)
        records.append(_generated(f"decompose#{k}", "decompose", spec, 10.0, next(seeds), cfg))
    return records


def long_record() -> list[Record]:
    spec = SyntheticSpec("tv_denoise_s1", duration=4.0, fs=SYNTHETIC_FS)
    return [_generated("s1-4s", "denoise", spec, 10.0, LONG_NOISE_SEED, preset("synthetic"))]


def _built(name, samples, fs, snr_db, noise_seed, cfg, **fields) -> Record:
    # records are built like test_criterion_6 builds them, mean removed
    clean = RealSignal(samples - samples.mean(), fs)
    driver = "decompose" if fields.get("K", 1) > 1 else "denoise"
    return Record(name, driver, add_noise(clean, snr_db, noise_seed), clean.samples, cfg, **fields)


def biomedical() -> list[Record]:
    fs = 256.0
    t = np.arange(int(20 * fs)) / fs
    phi = 3.0 * t + 0.3 / (2 * np.pi) * np.sin(2 * np.pi * 0.15 * t)
    a2 = 0.5 + 0.2 * np.tanh(3 * (t - 10))
    eeg = 30 * (1 + 0.25 * np.sin(2 * np.pi * 0.1 * t)) * (
        np.cos(2 * np.pi * phi) + a2 * np.cos(2 * np.pi * 2 * phi)
    )
    eeg_rec = _built("eeg", eeg, fs, 5.0, EEG_NOISE_SEED, preset("eeg"), alphas={2: a2})

    fs = 250.0
    t = np.arange(int(24 * fs)) / fs
    phi = 1.8 * t + 0.05 / (2 * np.pi) * np.sin(2 * np.pi * 0.2 * t)
    amps = {2: 0.8, 3: 0.55, 4: 0.3}
    wave = np.cos(2 * np.pi * phi) + sum(a * np.cos(2 * np.pi * ell * phi) for ell, a in amps.items())
    ecg = (1 + 0.1 * np.sin(2 * np.pi * 0.05 * t)) * wave
    ecg_rec = _built(
        "ecg", ecg, fs, 10.0, ECG_NOISE_SEED, preset("ecg", r_max=6),
        alphas={ell: np.full(t.size, a) for ell, a in amps.items()},
    )

    fs = 32.0
    t = np.arange(int(60 * fs)) / fs
    ip = (1 + 0.2 * np.sin(2 * np.pi * 0.02 * t)) * (
        np.cos(2 * np.pi * 0.25 * t) + 0.4 * np.cos(2 * np.pi * 0.5 * t)
    ) + 0.25 * (np.cos(2 * np.pi * 1.4 * t) + 0.5 * np.cos(2 * np.pi * 2.8 * t))
    ip_rec = _built(
        "ip", ip, fs, 20.0, IP_NOISE_SEED, preset("ip", r_max=4), K=2, ridge_targets=IP_RIDGE_TARGETS
    )
    return [eeg_rec, ecg_rec, ip_rec]


WORKLOADS = {
    "synthetic-mix": synthetic_mix,
    "long-record": long_record,
    "biomedical": biomedical,
}


def warmup_record() -> Record:
    """The untimed record run during set-up, the same for every workload."""
    spec = SyntheticSpec("tv_denoise_s1", duration=1.0, fs=SYNTHETIC_FS)
    return _generated("warm-up", "denoise", spec, 10.0, WARMUP_NOISE_SEED, preset("synthetic"))


class CheckFailed(AssertionError):
    """A record's output failed a correctness check."""


def _check_signal(rec: Record, y, what: str) -> None:
    y = np.asarray(y)
    if y.shape != (len(rec.signal),):
        raise CheckFailed(f"{rec.name}: {what} has shape {y.shape}, input has {len(rec.signal)} samples")
    if not np.all(np.isfinite(y)):
        raise CheckFailed(f"{rec.name}: {what} is not finite")


def check_output(rec: Record, out) -> None:
    """Raise CheckFailed unless the driver's output is well-formed."""
    if rec.driver == "denoise":
        _check_signal(rec, out.reconstruction.samples, "reconstruction")
    elif rec.driver == "decompose":
        if len(out) != rec.K:
            raise CheckFailed(f"{rec.name}: decompose returned {len(out)} components, asked for {rec.K}")
        for k, res in enumerate(out):
            _check_signal(rec, res.reconstruction.samples, f"component {k + 1} reconstruction")
        if rec.ridge_targets is not None:
            means = sorted(float(np.mean(res.ridge.freq)) for res in out)
            for m, (target, tol) in zip(means, rec.ridge_targets):
                if not abs(m - target) < tol:
                    raise CheckFailed(f"{rec.name}: ridge mean {m:.4f} Hz not within {tol} Hz of {target} Hz")
    else:
        for ell, trace in out.haf_traces.items():
            _check_signal(rec, trace, f"HAF trace of harmonic {ell}")
        if out.t_hat is not None and not 0.0 <= out.t_hat - rec.signal.t0 <= rec.signal.duration:
            raise CheckFailed(f"{rec.name}: transition {out.t_hat} s outside the record")


def output_digest(rec: Record, out) -> bytes:
    """Bytes that identify a driver output, to compare repeated runs."""
    if rec.driver == "denoise":
        return out.reconstruction.samples.tobytes()
    if rec.driver == "decompose":
        return b"".join(res.reconstruction.samples.tobytes() for res in out)
    return repr((out.t_hat, out.per_harmonic)).encode()
