import tracemalloc

import numpy as np
import pytest

from seiznet import preprocess
from seiznet.errors import ConfigError, DataError
from seiznet.preprocess import (WaveletCoeffs, apply_scaler, dwt_haar, fit_scaler,
                                idwt_haar, wavelet_denoise)


class TestScaler:
    def test_hand_values(self):
        p = fit_scaler(np.array([[1.0], [2.0], [3.0]]))
        assert p.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert p.std[0] == pytest.approx(0.81650, abs=1e-5)  # population sigma

    def test_symmetric_column(self):
        p = fit_scaler(np.array([[-1.0], [1.0]]))
        assert p.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert p.std[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        with pytest.raises(DataError, match=r"\[0\]"):
            fit_scaler(x)

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="2 rows"):
            fit_scaler(np.ones((1, 4)))

    def test_apply_on_fit_data_standardizes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 7)) * 3.0 + 5.0
        z = apply_scaler(x, fit_scaler(x))
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9

    def test_single_value(self):
        p = fit_scaler(np.array([[1.0], [2.0], [3.0]]))
        z = apply_scaler(np.array([[3.0]]), p)
        assert z[0, 0] == pytest.approx(1.22474, abs=1e-5)
        assert apply_scaler(np.array([[2.0]]), p)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        p = fit_scaler(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(DataError, match="does not match"):
            apply_scaler(np.ones((2, 3)), p)


class TestHaar:
    def test_hand_values(self):
        c = dwt_haar(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(c.approx, [2.12132, 4.94975], atol=1e-5)
        assert np.allclose(c.detail, [-0.70711, -0.70711], atol=1e-5)
        # exact orthonormal formulas
        assert np.allclose(c.approx, [3.0 / np.sqrt(2), 7.0 / np.sqrt(2)], atol=1e-12)

    def test_constant_signal(self):
        c = dwt_haar(np.full(178, 3.7))
        assert np.allclose(c.detail, 0.0, atol=1e-12)
        assert np.allclose(c.approx, 3.7 * np.sqrt(2.0), atol=1e-12)

    def test_energy_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.standard_normal(178)
            c = dwt_haar(s)
            lhs = (s ** 2).sum()
            rhs = (c.approx ** 2).sum() + (c.detail ** 2).sum()
            assert abs(lhs - rhs) < 1e-9 * lhs

    def test_odd_length_rejected(self):
        with pytest.raises(DataError, match="even length"):
            dwt_haar(np.ones(177))

    def test_idwt_hand_values(self):
        out = idwt_haar(WaveletCoeffs(np.array([np.sqrt(2.0)]), np.array([0.0])))
        assert np.allclose(out, [1.0, 1.0], atol=1e-12)
        zeros = idwt_haar(WaveletCoeffs(np.zeros(4), np.zeros(4)))
        assert np.array_equal(zeros, np.zeros(8))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            idwt_haar(WaveletCoeffs(np.zeros(3), np.zeros(4)))

    def test_round_trip_1000_signals(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1000, 178)) * 40.0
        err = np.abs(idwt_haar(dwt_haar(x)) - x).max()
        assert err < 1e-9


class TestDenoise:
    def test_constant_is_identity(self):
        s = np.full(178, 2.5)
        assert np.allclose(wavelet_denoise(s, "universal"), s, atol=1e-12)

    def test_threshold_zero_is_identity(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(178) * 10.0
        assert np.allclose(wavelet_denoise(s, "fixed:0"), s, atol=1e-12)

    def test_off_is_identity(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(178)
        assert np.array_equal(wavelet_denoise(s, "off"), s)

    def test_noise_reduction_on_ramp(self):
        rng = np.random.default_rng(5)
        clean = np.linspace(0.0, 10.0, 178)
        noise = 0.05 * (-1.0) ** np.arange(178) * (1.0 + 0.3 * rng.random(178))
        noisy = clean + noise
        denoised = wavelet_denoise(noisy, "universal")
        assert np.linalg.norm(denoised - clean) < np.linalg.norm(noisy - clean)

    def test_never_grows_energy(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = rng.standard_normal(178) * rng.uniform(0.1, 30.0)
            assert np.linalg.norm(wavelet_denoise(s, "universal")) \
                <= np.linalg.norm(s) + 1e-9

    def test_universal_threshold_formula(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(178) * 4.0
        c = dwt_haar(s)
        t = np.median(np.abs(c.detail)) / 0.6745 * np.sqrt(2.0 * np.log(178.0))
        shrunk = np.sign(c.detail) * np.maximum(np.abs(c.detail) - t, 0.0)
        expected = idwt_haar(WaveletCoeffs(c.approx, shrunk))
        assert np.allclose(wavelet_denoise(s, "universal"), expected, atol=1e-12)

    def test_matrix_rows_match_vector_calls(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 178))
        batch = wavelet_denoise(x, "universal")
        for i in range(5):
            assert np.allclose(batch[i], wavelet_denoise(x[i], "universal"), atol=1e-12)

    def test_output_length(self):
        s = np.random.default_rng(9).standard_normal(178)
        assert wavelet_denoise(s, "universal").shape == s.shape

    @pytest.mark.parametrize("policy", ["universal", "fixed:0.3"])
    def test_zero_rows_of_odd_length_rejected(self, policy):
        with pytest.raises(DataError, match="even length >= 2, got 177"):
            wavelet_denoise(np.empty((0, 177)), policy)

    def test_temporaries_stay_at_block_size(self):
        # the output plus block-sized temporaries, not matrix-sized ones
        x = np.random.default_rng(10).standard_normal((9200, 178))
        tracemalloc.start()
        try:
            out = wavelet_denoise(x, "universal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * 2**20

    def test_one_call_is_one_call_of_the_module_function(self, monkeypatch):
        # a tracer wraps the module attribute; blocks must not re-enter it
        calls = []
        inner = preprocess.wavelet_denoise

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return inner(*args, **kwargs)
        monkeypatch.setattr(preprocess, "wavelet_denoise", counting)
        preprocess.wavelet_denoise(np.ones((3000, 178)), "universal")
        assert calls == [(3000, 178)]

    def test_policy_parsing(self):
        assert preprocess.parse_policy("fixed:2.5") == ("fixed", 2.5)
        for bad in ("hard", "fixed:abc", "fixed:-1"):
            with pytest.raises(ConfigError):
                preprocess.parse_policy(bad)


# Reference expressions: each preprocessing step as one out-of-place numpy
# expression. The module writes into arrays it owns instead; the IEEE
# operations are the same, so the bits must be too.

def ref_apply_scaler(x, p):
    return (x - p.mean) / p.std


def ref_dwt_haar(s):
    return (s[..., 0::2] + s[..., 1::2]) / np.sqrt(2.0), \
        (s[..., 0::2] - s[..., 1::2]) / np.sqrt(2.0)


def ref_idwt_haar(a, d):
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],))
    out[..., 0::2] = (a + d) / np.sqrt(2.0)
    out[..., 1::2] = (a - d) / np.sqrt(2.0)
    return out


def ref_soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def ref_wavelet_denoise(s, policy):
    if policy == "off":
        return s.copy()
    a, d = ref_dwt_haar(s)
    if policy == "universal":
        sigma = np.median(np.abs(d), axis=-1, keepdims=True) / 0.6745
        t = sigma * np.sqrt(2.0 * np.log(s.shape[-1]))
    else:
        t = float(policy[len("fixed:"):])
    return ref_idwt_haar(a, ref_soft_threshold(d, t))


def signed_zero_rows():
    """Random rows plus rows of exact zeros, negative zeros, both mixed into
    noise, a constant row, and pairs that cancel to +0 / -0 details."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((8, 178)) * 7.0
    x[0] = 0.0
    x[1] = -0.0
    x[2, ::3] = 0.0
    x[2, 1::3] = -0.0
    x[3] = 4.25
    x[4, 1::2] = x[4, 0::2]  # every detail coefficient is exactly 0
    x[5, 0::2] = -0.0
    x[5, 1::2] = 0.0
    return x


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestInPlaceMatchesReference:
    def test_apply_scaler(self):
        x = signed_zero_rows()
        p = fit_scaler(np.random.default_rng(22).standard_normal((30, 178)) * 3.0 + 1.0)
        before = x.copy()
        assert_same_bits(apply_scaler(x, p), ref_apply_scaler(x, p))
        assert_same_bits(x, before)
        assert_same_bits(apply_scaler(x[6], p), ref_apply_scaler(x[6], p))

    def test_haar_split_and_merge(self):
        x = signed_zero_rows()
        before = x.copy()
        c = dwt_haar(x)
        a, d = ref_dwt_haar(x)
        assert_same_bits(c.approx, a)
        assert_same_bits(c.detail, d)
        assert_same_bits(x, before)
        a_before, d_before = c.approx.copy(), c.detail.copy()
        assert_same_bits(idwt_haar(c), ref_idwt_haar(a, d))
        assert_same_bits(c.approx, a_before)
        assert_same_bits(c.detail, d_before)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1e6])
    def test_soft_threshold(self, t):
        d = dwt_haar(signed_zero_rows()).detail
        before = d.copy()
        assert_same_bits(preprocess.soft_threshold(d, t), ref_soft_threshold(d, t))
        assert_same_bits(d, before)

    def test_soft_threshold_per_row(self):
        d = dwt_haar(signed_zero_rows()).detail
        t = np.abs(d).max(axis=-1, keepdims=True) * np.linspace(0.0, 1.5, d.shape[0])[:, None]
        assert_same_bits(preprocess.soft_threshold(d, t), ref_soft_threshold(d, t))

    @pytest.mark.parametrize("policy", ["off", "universal", "fixed:0.3", "fixed:1e6"])
    def test_wavelet_denoise(self, policy):
        x = signed_zero_rows()
        before = x.copy()
        assert_same_bits(wavelet_denoise(x, policy), ref_wavelet_denoise(x, policy))
        assert_same_bits(x, before)
        assert_same_bits(wavelet_denoise(x[6], policy), ref_wavelet_denoise(x[6], policy))
        # inputs that span several row blocks, the last one partial
        rng = np.random.default_rng(23)
        tall = np.concatenate([np.tile(x, (312, 1)), rng.standard_normal((7, 178)) * 5.0])
        stack = rng.standard_normal((2, 1300, 178)) * 3.0
        for big in (tall, stack):
            assert big.reshape(-1, 178).shape[0] > 2 * preprocess.DENOISE_BLOCK_ROWS
            assert_same_bits(wavelet_denoise(big, policy), ref_wavelet_denoise(big, policy))
