"""System parameters, channel synthesis, precoder construction.

All scalar quantities are stored in linear units (milliwatts for powers,
plain ratios for SINR thresholds). dB conversion happens only at the CLI
and config-file boundary.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import IllConditioned
from .numerics import well_conditioned

__all__ = [
    "SystemParams",
    "ChannelSet",
    "Precoder",
    "db_to_linear",
    "generate_rayleigh",
    "channel_inversion_precoder",
    "precoder_from_unit_columns",
    "perturb_csi",
    "load_config",
]


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Dimensions and scalars of the broadcast-channel instance.

    n: BS antennas, k: users, l: jammer antennas, z: Eve antennas.
    sigma2: noise power (mW), tau: per-user QoS SINR threshold (ratio),
    p_tot: total power budget shared by BS streams and jammer (mW).
    """

    n: int
    k: int
    l: int
    z: int
    sigma2: float
    tau: float
    p_tot: float

    def __post_init__(self):
        if min(self.n, self.k, self.l, self.z) < 1:
            raise ValueError("all antenna/user counts must be >= 1")
        if self.l < self.z:
            # Otherwise Eve can always null the jamming outright.
            raise ValueError(f"need L >= Z, got L={self.l}, Z={self.z}")
        if not (0 < self.sigma2 < np.inf and 0 < self.tau < np.inf and 0 < self.p_tot < np.inf):
            raise ValueError(f"sigma2, tau and p_tot must be positive and finite, got "
                             f"{self.sigma2}, {self.tau} and {self.p_tot}")

    @property
    def rate_threshold(self):
        """Per-user rate threshold in bits: log2(1 + tau)."""
        return float(np.log2(1.0 + self.tau))


@dataclass(frozen=True)
class ChannelSet:
    """The four complex channel matrices.

    F: N x K (BS -> users), H: N x Z (BS -> Eve),
    B: L x K (jammer -> users), G: L x Z (jammer -> Eve).
    The arrays are never written in place (replace gives a new draw), so
    what a draw caches from them stays valid.
    """

    F: np.ndarray
    H: np.ndarray
    B: np.ndarray
    G: np.ndarray

    @cached_property
    def zero_forcing(self):
        """[G B] and the inverse of gram = [G B]^H [G B], None unless gram
        is well_conditioned (so are B^H B and the Schur complement of
        compute_phi then): the one factor that every zero-forcing step on
        this draw shares, computed at its first use."""
        joint = np.hstack([self.G, self.B])
        gram = joint.conj().T @ joint
        return joint, np.linalg.inv(gram) if well_conditioned(gram, hermitian=True) else None

    def validate(self, params: SystemParams):
        n, k, l, z = params.n, params.k, params.l, params.z
        shapes = {"F": (n, k), "H": (n, z), "B": (l, k), "G": (l, z)}
        for name, want in shapes.items():
            m = getattr(self, name)
            if m.shape != want:
                raise ValueError(f"channel {name}: shape {m.shape} != {want}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"channel {name} has non-finite entries")
        return self


@dataclass(frozen=True)
class Precoder:
    """Normalized precoding vectors and derived quantities.

    U: N x K with unit-norm columns.
    A: Z x K, column k is H^H u_k (Eve-side effective vector per stream).
    Delta: K x K QoS coupling matrix; column k has -|f_k^H u_k|^2 / tau on
    the diagonal and |f_k^H u_i|^2 off the diagonal.
    """

    U: np.ndarray
    A: np.ndarray
    Delta: np.ndarray


def _rng(seed, stream=0):
    # Philox is counter-based: identical streams on every platform. Seeds
    # wrap modulo 2**64, so -1 draws what 2**64 - 1 draws.
    return np.random.Generator(np.random.Philox(key=[np.uint64(int(seed) % 2**64), np.uint64(stream)]))


def _cn_matrix(rng, rows, cols, variance=1.0):
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def generate_rayleigh(params: SystemParams, gain_db_b=0.0, rng_seed=0) -> ChannelSet:
    """Draw i.i.d. Rayleigh-fading channels.

    Entries of F, H, G are CN(0, 1) (0 dB element power gain); entries of
    B are CN(0, 10^(gain_db_b / 10)). Deterministic for a fixed seed.
    """
    rng = _rng(rng_seed)
    n, k, l, z = params.n, params.k, params.l, params.z
    F = _cn_matrix(rng, n, k)
    H = _cn_matrix(rng, n, z)
    B = _cn_matrix(rng, l, k, variance=float(db_to_linear(gain_db_b)))
    G = _cn_matrix(rng, l, z)
    return ChannelSet(F=F, H=H, B=B, G=G).validate(params)


def build_delta(F, U, tau):
    """QoS coupling matrix: Delta[i, k] = |f_k^H u_i|^2 for i != k and
    Delta[k, k] = -|f_k^H u_k|^2 / tau."""
    M = np.abs(F.conj().T @ U) ** 2  # M[k, i] = |f_k^H u_i|^2
    Delta = M.T.astype(float).copy()
    kdiag = np.arange(F.shape[1])
    Delta[kdiag, kdiag] = -M[kdiag, kdiag] / tau
    return Delta


def precoder_from_unit_columns(U, ch: ChannelSet, tau) -> Precoder:
    """Assemble a Precoder from externally supplied unit-norm columns."""
    norms = np.linalg.norm(U, axis=0)
    if np.abs(norms - 1.0).max() > 1e-12:
        raise ValueError("precoder columns must have unit norm")
    A = ch.H.conj().T @ U
    return Precoder(U=U.copy(), A=A, Delta=build_delta(ch.F, U, tau))


def channel_inversion_precoder(ch: ChannelSet, tau) -> Precoder:
    """Channel-inversion precoder: u_k is the normalized k-th column of
    F (F^H F)^{-1}, which zero-forces the other users' streams."""
    F = ch.F
    gram = F.conj().T @ F
    if not well_conditioned(gram):
        raise IllConditioned("user channels nearly collinear: cond(F^H F) > 1e12")
    U_tilde = F @ np.linalg.inv(gram)
    U = U_tilde / np.linalg.norm(U_tilde, axis=0, keepdims=True)
    return precoder_from_unit_columns(U, ch, tau)


def perturb_csi(ch: ChannelSet, xi2, rng_seed=0) -> ChannelSet:
    """Add CN(0, xi2) perturbations to the jammer-side channels G and B.

    F and H are left untouched (only the jammer works with imperfect CSI
    in the modelled scenario).
    """
    if not (np.isfinite(xi2) and xi2 >= 0):
        raise ValueError(f"xi2 must be finite and >= 0, got {xi2}")
    if xi2 == 0:
        return ch
    rng = _rng(rng_seed, stream=1)
    dG = _cn_matrix(rng, *ch.G.shape, variance=xi2)
    dB = _cn_matrix(rng, *ch.B.shape, variance=xi2)
    return replace(ch, G=ch.G + dG, B=ch.B + dB)


# --- config file -----------------------------------------------------------

CONFIG_KEYS = {
    "n": int,
    "k": int,
    "l": int,
    "z": int,
    "sigma2_dbm": float,
    "tau_db": float,
    "p_tot_dbm": float,
    "b_gain_db": float,
    "xi2_db": float,
    "seed": int,
    "trials": int,
}

CONFIG_DEFAULTS = {"b_gain_db": 0.0, "xi2_db": None, "seed": 0, "trials": 100}


def load_config(path):
    """Parse the key-value config format: one `key = value` per line,
    `#` starts a comment. Returns (SystemParams, extras dict)."""
    raw = dict(CONFIG_DEFAULTS)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "xi2_db" and value.lower() in ("none", "off"):
                raw[key] = None
            else:
                raw[key] = CONFIG_KEYS[key](value)
    for key in ("n", "k", "l", "z", "sigma2_dbm", "tau_db", "p_tot_dbm"):
        if key not in raw:
            raise ValueError(f"config missing required key {key!r}")
    params = SystemParams(
        n=raw["n"],
        k=raw["k"],
        l=raw["l"],
        z=raw["z"],
        sigma2=float(db_to_linear(raw["sigma2_dbm"])),
        tau=float(db_to_linear(raw["tau_db"])),
        p_tot=float(db_to_linear(raw["p_tot_dbm"])),
    )
    extras = {
        "b_gain_db": raw["b_gain_db"],
        "xi2": None if raw["xi2_db"] is None else float(db_to_linear(raw["xi2_db"])),
        "seed": raw["seed"],
        "trials": raw["trials"],
    }
    return params, extras
