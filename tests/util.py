"""Shared instance builders for the test suite."""

import sys
from dataclasses import replace

import numpy as np

from cjopt import numerics
from cjopt.experiments import SweepSpec
from cjopt.feasibility import check_existence
from cjopt.model import (
    ChannelSet,
    SystemParams,
    channel_inversion_precoder,
    generate_rayleigh,
)


def make_instance(seed, n=8, k=3, l=6, z=2, sigma2=1.0, tau=2.0, p_tot=100.0,
                  gain_db_b=0.0):
    params = SystemParams(n=n, k=k, l=l, z=z, sigma2=sigma2, tau=tau, p_tot=p_tot)
    ch = generate_rayleigh(params, gain_db_b=gain_db_b, rng_seed=seed)
    pre = channel_inversion_precoder(ch, params.tau)
    return params, ch, pre


def feasible_instance(seed, **kw):
    """First feasible draw at or after `seed` (skips infeasible channels)."""
    while True:
        params, ch, pre = make_instance(seed, **kw)
        if check_existence(pre, params).feasible:
            return params, ch, pre
        seed += 1


def degenerate_draws(ch):
    """Two draws from ch (L = 6, K = 3, Z = 2) on which [G B] loses full
    column rank: B with collinear columns, and G inside span(B), with
    integer entries so that the Schur complement is exactly zero in
    floating point."""
    eye = np.eye(6, dtype=complex)
    return [replace(ch, B=np.column_stack([ch.B[:, 0], 2.0 * ch.B[:, 0], ch.B[:, 2]])),
            replace(ch, B=eye[:, :3], G=eye[:, :3] @ np.array([[1, 2j], [0, 1], [3, -1]]))]


def sweep_cli_spec():
    """The sweep of the benchmark's in-process `cjopt sweep`: P_tot 15-30
    dBm on N=8, K=3, L=6, Z=2, tau 3 dB, with its five solvers."""
    base = SystemParams(n=8, k=3, l=6, z=2, sigma2=1.0, tau=10 ** 0.3, p_tot=100.0)
    return SweepSpec(base=base, axis="P_tot", axis_values=tuple(10 ** (dbm / 10) for dbm in (15, 20, 25, 30)),
                     trials=10, solvers=("optimal", "fixed_split", "no_jamming", "b_zero", "l_inf_limit"), seed=1)


def factor_calls(monkeypatch, gram=None):
    """A list that records, in order, each factor of a draw computed from
    now on: "delta" for an inverse of a real matrix (in src/ only
    -(Delta^H)^{-1} is real), "svd" for an SVD that returns U (only G's
    null space takes one), and, given gram, "test" and "inv" for a
    conditioning test and an inverse of a matrix equal to gram."""
    calls = []

    def is_gram(M):
        return gram is not None and np.shape(M) == gram.shape and np.allclose(M, gram, rtol=1e-12, atol=0.0)

    def test(M, *args, **kwargs):
        if is_gram(M):
            calls.append("test")
        return real_test(M, *args, **kwargs)

    def inv(M):
        if is_gram(M):
            calls.append("inv")
        elif np.isrealobj(M):
            calls.append("delta")
        return real_inv(M)

    def svd(M, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append("svd")
        return real_svd(M, *args, **kwargs)

    real_test, real_inv, real_svd = numerics.well_conditioned, np.linalg.inv, np.linalg.svd
    for name, mod in list(sys.modules.items()):  # every cjopt module that holds it
        if name.startswith("cjopt") and getattr(mod, "well_conditioned", None) is real_test:
            monkeypatch.setattr(mod, "well_conditioned", test)
    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


def random_psd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (M @ M.conj().T)


def custom_channels(F, H, B, G):
    return ChannelSet(
        F=np.asarray(F, dtype=complex),
        H=np.asarray(H, dtype=complex),
        B=np.asarray(B, dtype=complex),
        G=np.asarray(G, dtype=complex),
    )
