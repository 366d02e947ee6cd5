"""Denoise a noisy oscillation four ways and compare output SNR.

One realization at 10 dB input SNR: the adaptive wave-shape fit, its
fixed-shape linear warm start, and hard/soft spectrogram thresholding.
"""

from tvshape import SyntheticSpec, add_noise, denoise, generate, preset, snr_out, threshold_denoise

SNR_IN = 10.0

clean, _ = generate(SyntheticSpec("tv_denoise_s1"))
noisy = add_noise(clean, SNR_IN, seed=42)
cfg = preset("synthetic")

res = denoise(noisy, cfg)
hard, soft = threshold_denoise(noisy, cfg.sigma)

print(f"input SNR: {SNR_IN:g} dB")
print(f"adaptive wave-shape fit : {snr_out(clean, res.reconstruction):6.2f} dB")
print(f"fixed-shape warm start  : {snr_out(clean, res.lr_reconstruction):6.2f} dB")
print(f"hard-threshold STFT     : {snr_out(clean, hard):6.2f} dB")
print(f"soft-threshold STFT     : {snr_out(clean, soft):6.2f} dB")

m = res.metrics
print(f"\nresidual diagnostics: spectral entropy {m.spectral_entropy_bits:.2f} bits, "
      f"PCC vs estimate {m.pcc:+.3f}")
print(f"fit: {res.fit_diagnostics.iterations} iterations, "
      f"converged by {res.fit_diagnostics.converged_by}")
