"""Periodic grids, vector fields on them, and the discrete Fourier calculus.

Fields live on the torus [0, L)^n sampled at G points per axis.  The
transform normalization makes the transform of exp(2 pi i k.x / L) a unit
impulse at frequency k / L, so multiplier formulas read exactly as in the
continuum: differentiation multiplies mode z by 2 pi i z_j.

The frequency set uses the signed representatives k in [-G/2, G/2); the
unmatched Nyquist plane (index -G/2 on any axis) is excluded from every
differentiation and inversion multiplier, and the zero mode is reserved
for the mean, which solvers project away and report.

Solvers use the half spectrum of ``SpectralCore``: arrays of shape
(C, G, ..., G, G/2 + 1) whose last axis holds only the indices 0..G/2,
every other mode being the conjugate of a stored one; index G/2 is that
axis's Nyquist plane.  ``SpectralCore`` makes the only FFT calls in the
package; the dense oracle builds its own exponential matrices as an
independent reference.

A multidimensional transform is a sequence of 1-D passes, one per axis,
and the core runs numpy's 1-D passes itself, in the order and with the
bits of numpy's ``rfftn`` and ``irfftn``: ``forward`` takes ``rfft`` of
the last axis and then ``fft`` of the leading axes from last to first;
``inverse`` and ``derivatives`` take ``ifft`` of the leading axes from
first to last and then ``irfft`` of the last.  The complex passes run in
place on one buffer.

The shared core holds read-only tables and no buffer: each solve owns its
transform buffers and passes them to ``forward``/``derivatives`` as
``out``/``work`` and to ``inverse`` as ``work`` (numpy.fft's ``out=``,
numpy >= 2.0).  A Picard step carries i times its coefficients, so its
derivative spectra take real factors (``derivatives`` with ``times_i``),
and it takes its residual's Nyquist norm from
``SpectralCore.residual_leak``, which squares the rows off Phi once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PeriodicGrid",
    "GridFunction",
    "SpectralCore",
    "spectral_core",
    "gradient",
    "norm_l2",
    "norm_l2star",
    "norm_vector",
    "conjugate_exponent",
    "random_band_limited",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the torus [0, L)^n with G points per axis.

    G must be even and at least 4 so the retained frequencies come in
    conjugate pairs below an identifiable Nyquist plane.  L must be
    positive and keep L**n, (L/G)**n and n*(G/L)**2, the factors of the
    norms and the frequency tables, finite normal floats.
    """

    n: int
    G: int
    L: float = 1.0

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ValueError(f"supported dimensions are 2 <= n <= 4, got n={self.n}")
        if self.G < 4 or self.G % 2 != 0:
            raise ValueError(f"G must be even and >= 4, got G={self.G}")
        L, n, G = float(self.L), self.n, self.G
        if not (math.isfinite(L) and L > 0):
            raise ValueError(f"period length must be positive, got L={self.L}")
        try:  # the Plancherel weight, the Riemann weight and a bound on |z|^2, as Python floats
            factors = (L**n, (L / G) ** n, n * (G / L) ** 2)
        except OverflowError:
            factors = (math.inf,)
        if not all(sys.float_info.min <= f < math.inf for f in factors):
            raise ValueError(
                f"period L={self.L} is out of range for n={n}, G={G}: "
                "L**n, (L/G)**n and n*(G/L)**2 must be finite normal floats"
            )

    @property
    def shape(self) -> tuple:
        return (self.G,) * self.n

    @property
    def h(self) -> float:
        """Mesh width L / G."""
        return self.L / self.G

    @property
    def num_points(self) -> int:
        return self.G**self.n

    def axis_coords(self) -> np.ndarray:
        return self.h * np.arange(self.G)

    def points(self) -> np.ndarray:
        """Coordinates of all grid points, shape (n, G, ..., G)."""
        axes = np.meshgrid(*([self.axis_coords()] * self.n), indexing="ij")
        return np.stack(axes, axis=0)

    def axis_freq_indices(self) -> np.ndarray:
        """Signed integer representatives [0, 1, ..., G/2-1, -G/2, ..., -1]."""
        k = np.arange(self.G)
        k[k >= self.G // 2] -= self.G
        return k

    def nyquist_mask(self) -> np.ndarray:
        """True on modes with index -G/2 on at least one axis."""
        hit = np.arange(self.G) == self.G // 2
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.G
            mask |= hit.reshape(shape)
        return mask


@dataclass(frozen=True)
class GridFunction:
    """Real vector field sampled on a grid, values of shape (C, G, ..., G).

    The component index is slowest, then the grid axes in row-major order
    (axis 1 slowest), matching the on-disk field layout.
    """

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != self.grid.n + 1 or arr.shape[1:] != self.grid.shape:
            raise ValueError(
                f"field values must have shape (C, {', '.join(map(str, self.grid.shape))}), got {arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, grid: PeriodicGrid, components: int) -> "GridFunction":
        return cls(grid, np.zeros((components,) + grid.shape))

    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if other.grid != self.grid or other.values.shape != self.values.shape:
                raise ValueError("grid functions are not compatible")
            return GridFunction(self.grid, op(self.values, other.values))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def as_gradient(self, N: int) -> np.ndarray:
        """Reinterpret an N*n-component field as gradients, shape (N, n, ...)."""
        n = self.grid.n
        if self.components != N * n:
            raise ValueError(f"expected {N * n} components, got {self.components}")
        return self.values.reshape(N, n, *self.grid.shape)


class SpectralCore:
    """Half-spectrum transforms and tables of one grid: frequencies ``z``
    (n, ...), ``zmag`` = |z|, the ``nyquist`` and ``retained`` (nonzero,
    off Nyquist) masks, ``deriv`` = 2 pi i z_j zeroed on the Nyquist
    planes, ``zero``, the index of every component's mean coefficient, the
    Plancherel ``weight`` and ``sqrt_volume``: |u|_2 = sqrt_volume * sqrt(sum
    of weight * |U|^2 over the half spectrum); ``retained_index`` and
    ``nyquist_index``, the flat indices of one component's retained and
    Nyquist entries, and ``retained_weight`` and ``nyquist_weight``, their
    weights.  Norms are ``norms``, ``retained_norm`` and ``leak_norm``; a
    Picard step takes its residual's Nyquist norm from ``residual_leak``.
    Instances are shared through ``spectral_core``, so the arrays are
    read-only."""

    def __init__(self, grid: PeriodicGrid):
        self.grid = grid
        self.axes = tuple(range(1, grid.n + 1))
        # the last axis runs 0..G/2, so its Nyquist index is +G/2
        per_axis = [grid.axis_freq_indices()] * (grid.n - 1) + [np.arange(grid.G // 2 + 1)]
        k = np.stack(np.meshgrid(*per_axis, indexing="ij"))
        self.nyquist = (np.abs(k) == grid.G // 2).any(axis=0)
        self.z = k / grid.L
        self.zmag = np.sqrt((self.z**2).sum(axis=0))
        self.retained = (self.zmag > 0) & ~self.nyquist
        self.deriv = 2j * np.pi * self.z * ~self.nyquist
        self.zero = (slice(None),) + (0,) * grid.n
        # the last axis's planes 0 and G/2 hold their own conjugates; every other entry stands for two modes
        self.weight = np.where(np.isin(k[-1], (0, grid.G // 2)), 1.0, 2.0)
        self.sqrt_volume = math.sqrt(grid.L**grid.n)  # applied once to a norm, so no power leaves the floats
        self.retained_index = np.flatnonzero(self.retained)
        self.retained_weight = self.weight.flat[self.retained_index]
        self.nyquist_index = np.flatnonzero(self.nyquist)
        self.nyquist_weight = self.weight.flat[self.nyquist_index]
        for arr in (a for a in vars(self).values() if isinstance(a, np.ndarray)):
            arr.flags.writeable = False

    def norms(self, R: np.ndarray) -> tuple:
        """L2 norms of the half-spectrum coefficients R (C, ...) on the retained modes and on the
        Nyquist planes: ``retained_norm`` of R and ``leak_norm`` of every row's Nyquist entries,
        read through ``nyquist_index``."""
        leak = np.take(R.reshape(len(R), -1), self.nyquist_index, axis=1)
        return self.retained_norm(R), self.leak_norm(leak)

    def retained_norm(self, R: np.ndarray) -> float:
        """The L2 norm on the retained modes of coefficient rows R (C, ...):
        (weight * sum over the rows of |R|^2)[retained].sum(), the rows added in row order and the
        retained modes picked before their weights, kept to the float range by
        ``_root_sum_of_squares``, whose root ``sqrt_volume`` scales."""
        return self.sqrt_volume * _root_sum_of_squares(
            R, lambda v: _weighted_power_sum(v, self.retained_index, self.retained_weight)
        )

    def leak_norm(self, leak: np.ndarray) -> float:
        """The L2 norm of the Nyquist entries ``leak`` (C, len(nyquist_index)) of C coefficient rows,
        summed as ``retained_norm`` sums the retained modes."""
        return self.sqrt_volume * _root_sum_of_squares(
            leak, lambda v: _weighted_power_sum(v, None, self.nyquist_weight)
        )

    def residual_leak(self, base: np.ndarray, rows):
        """A function of X, half-spectrum rows (len(rows), ...), that returns ``norms(R)[1]`` bit for
        bit, R = S - base with S holding X in its ``rows`` and zero in every other: a Picard step's
        residual, X being Phi^ and base f^.  The other rows' Nyquist squares are taken here, once
        (|0 - b|^2 = |b|^2); each call gathers and squares only X's Nyquist entries less base's and
        adds every row's squares in row order into +0.0, which leaves the first one's bits as
        ``_weighted_power_sum`` does (no square is -0.0).  Where that sum is not one that
        ``_root_sum_of_squares`` takes plain, the call takes ``leak_norm`` of every row's entries."""
        rows, size = list(rows), len(self.nyquist_index)
        base_leak = np.take(base.reshape(len(base), -1), self.nyquist_index, axis=1)
        row_leak = base_leak[rows]
        gather = (np.arange(len(rows))[:, None] * self.zmag.size + self.nyquist_index).ravel()
        with np.errstate(over="ignore"):  # an overflow leaves the plain range, and the call takes leak_norm
            fixed = [None if b in rows else _squares(entries) for b, entries in enumerate(base_leak)]

        def leak(X: np.ndarray) -> float:
            entries = X.take(gather).reshape(len(rows), size)
            entries -= row_leak
            with np.errstate(over="ignore"):
                varying = iter(_squares(entries))
                power = np.zeros(size)
                for squares in fixed:
                    power += next(varying) if squares is None else squares
                power *= self.nyquist_weight
                plain = float(power.sum())
            if not _plain_in_range(plain):
                every = base_leak.copy()
                every[rows] = entries
                return self.leak_norm(every)
            return self.sqrt_volume * math.sqrt(plain)

        return leak

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half-spectrum coefficients of real (C, G, ..., G) values, written
        into ``out`` (complex, C x the shape of ``zmag``) when given: ``rfft``
        of the last axis, then ``fft`` in place over the others from last to
        first, as ``rfftn`` runs them."""
        out = np.fft.rfft(values, axis=self.axes[-1], norm="forward", out=out)
        for axis in self.axes[-2::-1]:
            np.fft.fft(out, axis=axis, norm="forward", out=out)
        return out

    def inverse(self, coeffs: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Real (C, G, ..., G) values of half-spectrum coefficients.  The complex
        passes run in ``work`` (complex, of coeffs' shape), which may be coeffs
        itself; made when None, so that coeffs is kept."""
        return np.fft.irfft(self._complex_passes(coeffs, work), n=self.grid.G, axis=self.axes[-1], norm="forward")

    def _complex_passes(self, spectrum: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """``ifft`` of the leading axes from first to last, as ``irfftn`` runs
        them before its last-axis ``irfft``: the first pass writes into
        ``work`` (made when None, so ``spectrum`` is kept) and the others run
        in place there."""
        for axis in self.axes[:-1]:
            spectrum = work = np.fft.ifft(spectrum, axis=axis, norm="forward", out=work)
        return spectrum

    def derivatives(
        self, coeffs, out: np.ndarray | None = None, work: np.ndarray | None = None, entries=None, times_i: bool = False
    ) -> np.ndarray:
        """Values of the listed (alpha, j) derivatives of (N, ...) coefficients
        (default: all), each in row alpha * n + j of ``out`` (real, N * n x the
        grid shape, zeros when None), whose other rows are kept; ``coeffs`` may
        also be a list of N rows of which only the listed entries' are read.
        ``work`` (complex, C-contiguous, one per entry x the shape of ``zmag``,
        made when None) holds the derivative spectrum while the complex passes
        run in place on it.  Each row is bit-identical to ``inverse`` of its
        spectrum, deriv_j * coeffs_alpha.  With ``times_i`` the rows hold i times
        the coefficients, and each spectrum is the real Im(deriv_j) = 2 pi z_j
        times coeffs_alpha: the complex product's bits but for the signs of
        exact zeros."""
        n = self.grid.n
        entries = tuple(np.ndindex(len(coeffs), n)) if entries is None else entries
        out = np.zeros((len(coeffs) * n,) + self.grid.shape) if out is None else out
        work = np.empty((len(entries),) + self.zmag.shape, complex) if work is None else work
        factors = self.deriv.imag if times_i else self.deriv
        for i, (alpha, j) in enumerate(entries):
            np.multiply(coeffs[alpha], factors[j], out=work[i])
        self._complex_passes(work, work)
        for i, (alpha, j) in enumerate(entries):
            np.fft.irfft(work[i], n=self.grid.G, axis=-1, norm="forward", out=out[alpha * n + j])
        return out


@lru_cache(maxsize=8)
def spectral_core(grid: PeriodicGrid) -> SpectralCore:
    """The shared ``SpectralCore`` of a grid, built on first use."""
    return SpectralCore(grid)


def gradient(u: GridFunction) -> GridFunction:
    """Spectral gradient of an N-component field, returned with N*n components.

    Component order is (alpha, j) with alpha slowest.  Exact for fields
    band-limited below the Nyquist plane; coefficients on that plane are
    zeroed.
    """
    core = spectral_core(u.grid)
    return GridFunction(u.grid, core.derivatives(core.forward(u.values)))


def _power_of_two_near_max(values: np.ndarray) -> float:
    """The 2^e with 2^e <= max |value| < 2^(e+1), 0.5 if that max is 0 or not finite: a norm divides
    by it, squares the quotients with no overflow or underflow and multiplies back exactly."""
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(values), initial=0.0)))[1] - 1)


def _root_sum_of_squares(values, total, factor: float = 1.0) -> float:
    """sqrt(factor * total(values)), total(v) a sum of weighted squares of v's entries, by the one rule that keeps
    every norm in the float range: the plain sum, bits and all, where it and the product lie in [2**-600, inf) (no
    square lost to the subnormals moves it by an ulp; one that total drops may overflow); else s times the root over
    values / s, s = _power_of_two_near_max(values), divided as floats: numpy makes complex / subnormal s a NaN.
    That float view needs a contiguous copy of a strided array."""
    with np.errstate(over="ignore"):
        plain = float(total(values))
    if _plain_in_range(plain, factor):
        return math.sqrt(factor * plain)
    s = _power_of_two_near_max(values)
    values = np.ascontiguousarray(values)
    return math.sqrt(factor * total((values.view(np.float64) / s).view(values.dtype))) * s


def _plain_in_range(plain: float, factor: float = 1.0) -> bool:
    """Whether _root_sum_of_squares takes the plain sum: it and factor * it lie in [2**-600, inf)."""
    return 2.0**-600 <= plain and 2.0**-600 <= factor * plain < math.inf


def _squares(z: np.ndarray) -> np.ndarray:
    """|z|^2 of complex z as re^2 + im^2, in a new array."""
    square = np.square(z.real)
    square += np.square(z.imag)
    return square


def _weighted_power_sum(rows, index, weight) -> float:
    """(weight * (|row_0|^2 + |row_1|^2 + ...).flat[index]).sum() for the rows of an array, index None for every
    entry: |z|^2 as re^2 + im^2, the rows added in order into the first one's squares, in place, and the entries
    picked before their weights, so one row is summed with nothing."""
    power = None
    for row in rows:
        square = _squares(row)
        if power is None:
            power = square
        else:
            power += square
    if power is None:
        return 0.0
    picked = power.ravel() if index is None else np.take(power, index)
    picked *= weight
    return picked.sum()


def norm_l2(u: GridFunction) -> float:
    """Riemann-sum L2 norm: sqrt(h^n sum over points of |u(x)|^2), by _root_sum_of_squares."""
    return _root_sum_of_squares(u.values, lambda v: np.sum(v**2), u.grid.h**u.grid.n)


def norm_vector(v: np.ndarray) -> float:
    """Euclidean norm of a real or complex vector by _root_sum_of_squares: np.linalg.norm's bits in range."""
    return _root_sum_of_squares(np.ravel(v), lambda x: x.real.dot(x.real) + x.imag.dot(x.imag))


def conjugate_exponent(n: int) -> float:
    """The Sobolev-conjugate exponent 2n / (n - 2); defined for n >= 3."""
    if n < 3:
        raise ValueError(f"conjugate exponent requires n >= 3, got n={n}")
    return 2.0 * n / (n - 2.0)


def norm_l2star(u: GridFunction) -> float:
    """Riemann-sum L^{2*} norm of the pointwise Euclidean magnitude, taken on u / _power_of_two_near_max(u)."""
    p = conjugate_exponent(u.grid.n)
    scale = _power_of_two_near_max(u.values)
    mags = np.sqrt(((u.values / scale) ** 2).sum(axis=0))
    return float((u.grid.h**u.grid.n * np.sum(mags**p)) ** (1.0 / p)) * scale


def random_band_limited(
    grid: PeriodicGrid,
    components: int,
    rng: np.random.Generator,
    kmax: int | None = None,
) -> GridFunction:
    """Random real mean-zero field supported on modes with |k_j| <= kmax.

    Built by low-pass filtering white noise, so the result is exactly
    band-limited below the Nyquist plane and has exactly zero mean.
    """
    if kmax is None:
        kmax = max(1, grid.G // 4)
    if not 1 <= kmax < grid.G // 2:
        raise ValueError(f"kmax must be at least 1 and below the Nyquist index G/2, got {kmax}")
    white = rng.normal(size=(components,) + grid.shape)
    core = spectral_core(grid)
    keep = core.retained & (np.abs(core.z) <= kmax / grid.L).all(axis=0)
    return GridFunction(grid, core.inverse(core.forward(white) * keep))
