"""Separate two overlapping oscillations with drifting wave-shapes.

The record mixes a 25 Hz component (3 harmonics) with a 100-114 Hz chirp
(4 harmonics). Deflation extracts the dominant ridge first, subtracts its
fitted reconstruction, and repeats on the residual.
"""

import numpy as np

from tvshape import RealSignal, SyntheticSpec, add_noise, decompose, generate, preset, snr_out
from tvshape.stft import mean_frequency

x, truth = generate(SyntheticSpec("multicomponent"))
noisy = add_noise(x, 10.0, seed=3)

parts = decompose(noisy, [preset("synthetic")], K=2)

if_means = [mean_frequency(c.phi1, x.fs) for c in truth.components]
print(f"true component mean frequencies: {[f'{v:.1f} Hz' for v in if_means]}")

total = np.zeros(len(x))
for k, res in enumerate(parts, start=1):
    fm = float(np.mean(res.ridge.freq))
    ci = int(np.argmin([abs(fm - f) for f in if_means]))
    ref = RealSignal(truth.components[ci].clean, x.fs)
    print(
        f"stage {k}: ridge {fm:6.1f} Hz -> component {ci + 1}, "
        f"r = {res.model.r}, SNR {snr_out(ref, res.reconstruction):5.2f} dB "
        f"(fixed-shape baseline {snr_out(ref, res.lr_reconstruction):5.2f} dB)"
    )
    print(f"         fitted phase ratios: {[f'{h.e:.3f}' for h in res.model.harmonics]}")
    total += res.reconstruction.samples

print(f"\nsum of components vs clean mixture: {snr_out(x, x.with_samples(total)):.2f} dB")
