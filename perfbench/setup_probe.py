"""Cold-start probe behind the benchmark's setup_s metric.

Imports nsrkit, prepares one Gaussian probe, builds its dephasing family and
the calibrated quadrature, then exits. The benchmark times the whole process
from spawn to exit, so interpreter start and import count.

Usage (src/ on PYTHONPATH):

    python3 perfbench/setup_probe.py ALPHA R BETA [--context]

With --context it also prints one JSON object describing the environment:
the Python, numpy and scipy versions, the BLAS thread count and where nsrkit
was imported from.
"""

import sys


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    alpha, r, beta = (float(v) for v in sys.argv[1:4])
    import math

    import nsrkit

    dim = nsrkit.default_truncation_dim(alpha, r)
    psi = nsrkit.gaussian_probe(nsrkit.GaussianProbeSpec(alpha, r, dim))
    spec = nsrkit.PhaseFamilySpec(
        probe=psi,
        diffusion=nsrkit.DiffusionParams(beta),
        phi_domain=(-math.pi, math.pi),
    )
    fam = nsrkit.dephasing_family(spec)
    nsrkit.quadrature(nsrkit.optimal_calibration(0.0), fam.dim)
    if "--context" in sys.argv[4:]:
        import json

        import numpy
        import scipy

        print(json.dumps({
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "nsrkit_file": nsrkit.__file__,
            "probe_dim": dim,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
