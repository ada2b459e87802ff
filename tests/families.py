"""Kernel families that only the tests use, written through the same
protocol as the shipped ones (``kernels.KernelSpec``)."""

from dataclasses import dataclass

import numpy as np

from volterra_bsde.kernels import KernelSpec


class SignChangeKernel(KernelSpec):
    """K(t,s) = (t-s) cos(2 pi (t-s)): dK/dt changes sign, so the
    injectivity certificate and phi-tilde see a negative branch."""

    def dt_gap_t(self, u, gap):
        return np.cos(2.0 * np.pi * gap) - 2.0 * np.pi * gap * np.sin(2.0 * np.pi * gap)

    def eval(self, t, s):
        return (t - s) * np.cos(2.0 * np.pi * (t - s))

    def diag_exponent(self, t):
        return 1.0


@dataclass(frozen=True)
class GammaKernel(KernelSpec):
    """The gamma kernel K(t,s) = g**(H-1/2) exp(-lam g), g = t - s, of
    Bennedsen, Lunde & Pakkanen (Finance Stoch. 21 (2017) 931-965): H - 1/2
    at the diagonal like Liouville, but not self-similar."""

    hurst: float
    lam: float

    def dt_gap_t(self, u, gap):
        H, lam = self.hurst, self.lam
        return gap ** (H - 1.5) * np.exp(-lam * gap) * ((H - 0.5) - lam * gap)

    def eval(self, t, s):
        return (t - s) ** (self.hurst - 0.5) * np.exp(-self.lam * (t - s))

    def diag_exponent(self, t):
        return self.hurst - 0.5
