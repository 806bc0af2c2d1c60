"""Per-stream SINR at the users and the upper bound on Eve's SINR.

The eavesdropper's explicit beamformer is never materialized here; the
algebraically identical inverse form is used.
"""

import numpy as np

from .model import ChannelSet, Precoder
from .numerics import hermitian_solve

__all__ = ["sinr_user", "sinr_eve_upper"]


def _eve_noise_cov(ch: ChannelSet, Sigma, sigma2):
    Z = ch.G.shape[1]
    return sigma2 * np.eye(Z) + ch.G.conj().T @ Sigma @ ch.G


def sinr_user(pre: Precoder, ch: ChannelSet, p, Sigma, sigma2):
    """Per-user SINR: the k-th stream's power over the other streams'
    interference plus received jamming power plus noise."""
    p = np.asarray(p, dtype=float)
    gains = np.abs(ch.F.conj().T @ pre.U) ** 2  # gains[k, i] = |f_k^H u_i|^2
    signal = gains.diagonal() * p
    interference = gains @ p - signal
    leak = np.einsum("lk,lm,mk->k", ch.B.conj(), Sigma, ch.B).real
    return signal / (interference + leak + sigma2)


def sinr_eve_upper(pre: Precoder, ch: ChannelSet, p, Sigma, sigma2):
    """Upper bound on Eve's per-stream SINR: interference from the other
    streams is dropped, leaving p_k a_k^H (sigma^2 I + G^H Sigma G)^{-1} a_k."""
    p = np.asarray(p, dtype=float)
    A = pre.A
    C = _eve_noise_cov(ch, Sigma, sigma2)
    X = hermitian_solve(C, A)
    return p * np.einsum("zk,zk->k", A.conj(), X).real
