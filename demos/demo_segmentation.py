"""Locate a sharp wave-shape transition from the fitted amplitude curves.

The test signal switches its harmonic amplitude mix at t = 0.5 s through
steep tanh laws. After fitting, each harmonic's amplitude trace is scanned
for mean shifts, and the median of the first detected times is reported.
"""

from tvshape import SyntheticSpec, add_noise, generate, preset, segment

spec = SyntheticSpec(
    "sharp_transition",
    params={"t_t": 0.5, "mu": 0.35, "lam": 0.2, "kappa": 50.0, "r": 4},
)
x, truth = generate(spec)
noisy = add_noise(x, 10.0, seed=1)

res = segment(noisy, preset("synthetic"))

print(f"true transition time : {truth.t_transition:.4f} s")
print(f"estimated            : {res.t_hat:.4f} s")
print(f"absolute error       : {abs(res.t_hat - truth.t_transition) * 1000:.1f} ms")
print("\nper-harmonic change points:")
for ell, t_ell in res.per_harmonic:
    print(f"  harmonic {ell}: {t_ell:.4f} s")
print(f"\nmodel: r = {res.model.r}, nodes per harmonic: "
      f"{[len(h.nodes) for h in res.model.harmonics]}")
