import numpy as np
import pytest

from cjopt.errors import IllConditioned
from cjopt.model import (
    SystemParams,
    channel_inversion_precoder,
    db_to_linear,
    generate_rayleigh,
    load_config,
    perturb_csi,
    precoder_from_unit_columns,
)
from util import custom_channels, make_instance


def test_db_round_trip():
    for v in (0.0, 3.0, -30.0, 17.5):
        assert 10 * np.log10(db_to_linear(v)) == pytest.approx(v, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n=4, k=2, l=1, z=2, sigma2=1.0, tau=2.0, p_tot=10.0)  # L < Z
    with pytest.raises(ValueError):
        SystemParams(n=4, k=2, l=4, z=2, sigma2=0.0, tau=2.0, p_tot=10.0)
    # NaN passes every "<= 0" test, and an infinite budget is no budget.
    for bad in ({"sigma2": np.nan}, {"tau": np.nan}, {"p_tot": np.nan}, {"p_tot": np.inf},
                {"sigma2": np.inf}, {"tau": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**{"n": 4, "k": 2, "l": 4, "z": 2, "sigma2": 1.0, "tau": 2.0, "p_tot": 10.0, **bad})
    p = SystemParams(n=4, k=2, l=4, z=2, sigma2=1.0, tau=3.0, p_tot=10.0)
    assert p.rate_threshold == pytest.approx(2.0)  # log2(1 + 3)


class TestGenerateRayleigh:
    def test_determinism(self):
        params = SystemParams(n=4, k=2, l=4, z=2, sigma2=1.0, tau=2.0, p_tot=10.0)
        a = generate_rayleigh(params, rng_seed=7)
        b = generate_rayleigh(params, rng_seed=7)
        for x, y in ((a.F, b.F), (a.H, b.H), (a.B, b.B), (a.G, b.G)):
            assert np.array_equal(x, y)
        c = generate_rayleigh(params, rng_seed=8)
        assert not np.array_equal(a.F, c.F)

    def test_seeds_wrap_modulo_2_to_the_64(self):
        # A negative seed, or one of 2**64 or more, wraps instead of failing.
        params = SystemParams(n=4, k=2, l=4, z=2, sigma2=1.0, tau=2.0, p_tot=10.0)
        top = generate_rayleigh(params, rng_seed=2**64 - 1)
        assert np.array_equal(generate_rayleigh(params, rng_seed=-1).G, top.G)
        assert np.array_equal(generate_rayleigh(params, rng_seed=2**64).G, generate_rayleigh(params, rng_seed=0).G)

    def test_unit_element_power(self):
        # >= 1e4 entries at 0 dB gain: sample variance within 5 %.
        params = SystemParams(n=120, k=100, l=100, z=2, sigma2=1.0, tau=2.0, p_tot=10.0)
        ch = generate_rayleigh(params, rng_seed=0)
        assert np.mean(np.abs(ch.F) ** 2) == pytest.approx(1.0, rel=0.05)
        assert np.mean(np.abs(ch.B) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_b_gain_scaling(self):
        params = SystemParams(n=4, k=100, l=120, z=100, sigma2=1.0, tau=2.0, p_tot=10.0)
        ch = generate_rayleigh(params, gain_db_b=-30.0, rng_seed=1)
        assert np.mean(np.abs(ch.B) ** 2) == pytest.approx(1e-3, rel=0.05)
        assert np.mean(np.abs(ch.G) ** 2) == pytest.approx(1.0, rel=0.05)


class TestChannelInversionPrecoder:
    def test_identity_channels(self):
        ch = custom_channels(np.eye(2), np.ones((2, 1)), np.ones((3, 2)), np.ones((3, 1)))
        pre = channel_inversion_precoder(ch, tau=2.0)
        assert np.allclose(pre.U, np.eye(2))
        assert np.allclose(pre.Delta, np.diag([-0.5, -0.5]))

    def test_single_user(self):
        f = np.array([[3.0], [4.0]])
        ch = custom_channels(f, np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)))
        pre = channel_inversion_precoder(ch, tau=5.0)
        assert np.allclose(pre.U, f / 5.0)
        assert pre.Delta[0, 0] == pytest.approx(-25.0 / 5.0)

    def test_zero_forcing_off_diagonals(self):
        for seed in range(10):
            _, ch, pre = make_instance(seed, n=4, k=2, l=4, z=2)
            cross = ch.F[:, 0].conj() @ pre.U[:, 1]
            assert abs(cross) <= 1e-10
            off = pre.Delta - np.diag(np.diag(pre.Delta))
            assert np.abs(off).max() <= 1e-20  # squared magnitudes of ~1e-16 leakage

    def test_unit_columns(self):
        _, _, pre = make_instance(3)
        assert np.abs(np.linalg.norm(pre.U, axis=0) - 1.0).max() <= 1e-12

    def test_collinear_channels_rejected(self):
        F = np.ones((4, 2))
        ch = custom_channels(F, np.ones((4, 1)), np.ones((4, 2)), np.ones((4, 1)))
        with pytest.raises(IllConditioned):
            channel_inversion_precoder(ch, tau=2.0)

    def test_non_unit_columns_rejected(self):
        _, ch, pre = make_instance(0, n=4, k=2, l=4, z=2)
        with pytest.raises(ValueError):
            precoder_from_unit_columns(2.0 * pre.U, ch, tau=2.0)


class TestPerturbCsi:
    def test_zero_variance_is_identity(self):
        _, ch, _ = make_instance(0)
        assert perturb_csi(ch, 0.0, rng_seed=5) is ch

    def test_perturbation_variance(self):
        params = SystemParams(n=4, k=100, l=120, z=2, sigma2=1.0, tau=2.0, p_tot=10.0)
        ch = generate_rayleigh(params, rng_seed=0)
        hat = perturb_csi(ch, 0.1, rng_seed=0)
        assert np.mean(np.abs(hat.B - ch.B) ** 2) == pytest.approx(0.1, rel=0.05)
        assert np.array_equal(hat.F, ch.F)
        assert np.array_equal(hat.H, ch.H)

    def test_determinism(self):
        _, ch, _ = make_instance(0)
        a = perturb_csi(ch, 0.1, rng_seed=3)
        b = perturb_csi(ch, 0.1, rng_seed=3)
        assert np.array_equal(a.G, b.G) and np.array_equal(a.B, b.B)


class TestLoadConfig:
    def _write(self, tmp_path, text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return str(path)

    def test_parse(self, tmp_path):
        path = self._write(
            tmp_path,
            "# comment\nn = 8\nk = 3\nl = 6\nz = 2\n"
            "sigma2_dbm = 0\ntau_db = 3\np_tot_dbm = 20  # inline\nseed = 9\n",
        )
        params, extras = load_config(path)
        assert params.n == 8 and params.k == 3 and params.l == 6 and params.z == 2
        assert params.sigma2 == pytest.approx(1.0)
        assert params.tau == pytest.approx(10 ** 0.3)
        assert params.p_tot == pytest.approx(100.0)
        assert extras["seed"] == 9
        assert extras["trials"] == 100  # default
        assert extras["xi2"] is None

    def test_unknown_key(self, tmp_path):
        path = self._write(tmp_path, "n = 8\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = self._write(tmp_path, "n = 8\nk = 3\nl = 6\nz = 2\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_xi2_off(self, tmp_path):
        path = self._write(
            tmp_path,
            "n = 8\nk = 3\nl = 6\nz = 2\nsigma2_dbm = 0\ntau_db = 3\n"
            "p_tot_dbm = 20\nxi2_db = -10\n",
        )
        _, extras = load_config(path)
        assert extras["xi2"] == pytest.approx(0.1)
