"""Tour of the imaging model: scenes, kernels, and counted transforms.

Builds a synthetic satellite scene, blurs it with a tilted Gaussian
kernel under periodic boundary conditions, and shows the two bookkeeping
facts everything else relies on: the blur and its adjoint are a matched
pair, and every spectral operation is counted so solver cost claims can
be audited.
"""

from pathlib import Path

import numpy as np

from robustdeblur import (
    BlurOperator,
    GaussianPsfParams,
    count_transforms,
    gaussian_psf,
    psf_center,
    synthetic_scene,
    write_pgm,
)

OUT = Path(__file__).parent / "out" / "01_blur"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    shape = (64, 64)
    scene = synthetic_scene("satellite", shape)
    psf = gaussian_psf(GaussianPsfParams(4.0, 2.0, 2.0), shape)
    op = BlurOperator([psf], [psf_center(shape)])

    with count_transforms() as tally:
        blurred = op.apply(scene)[0]
    print("blur apply cost: %d fft2, %d ifft2" % (tally.fft2, tally.ifft2))
    print("scene mass %.1f -> blurred mass %.1f (kernel sums to one)"
          % (scene.sum(), blurred.sum()))

    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(shape), rng.standard_normal(shape)
    lhs = float(np.sum(op.apply(u) * v[None]))
    rhs = float(np.sum(u * op.apply_adjoint(v[None])))
    print("adjoint identity <Au, v> = <u, A'v>: %.6e vs %.6e" % (lhs, rhs))

    write_pgm(OUT / "scene.pgm", scene)
    write_pgm(OUT / "psf.pgm", psf)
    write_pgm(OUT / "blurred.pgm", blurred)
    print("wrote", OUT)


if __name__ == "__main__":
    main()
