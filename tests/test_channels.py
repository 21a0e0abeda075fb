import numpy as np
import pytest

import gaussqfi as gq
from gaussqfi.channels import (
    CATALOG,
    channel_from_dict,
    channel_to_dict,
    mix_matrix,
    phase_matrix,
    squeeze_matrix,
    twomode_squeeze_matrix,
)
from gaussqfi.errors import StructureError
from gaussqfi.symplectic import GeneratorW


def catalog_channels(rng):
    return [
        gq.phase_channel(),
        gq.squeeze_channel(rng.uniform(-np.pi, np.pi)),
        gq.squeeze_channel(rng.uniform(-np.pi, np.pi), mode=1, modes=2),
        gq.mix_channel(rng.uniform(-np.pi, np.pi)),
        gq.twomode_squeeze_channel(rng.uniform(-np.pi, np.pi)),
        gq.combined_channel(rng.uniform(-2, 2), rng.uniform(-2, 2),
                            rng.uniform(-np.pi, np.pi)),
    ]


def test_phase_at_half_pi():
    s = gq.channel_symplectic(gq.phase_channel(), np.pi / 2)
    assert np.allclose(s.matrix, np.diag([-1j, 1j]), atol=1e-15)


def test_identity_at_zero(rng):
    for spec in catalog_channels(rng):
        s = gq.channel_symplectic(spec, 0.0)
        assert np.allclose(s.matrix, np.eye(2 * spec.modes), atol=1e-15)


def test_mix_transmissivity():
    # chi = 0 beam splitter: alpha diagonal is cos(eps), tau = cos^2
    eps = 0.42
    s = gq.channel_symplectic(gq.mix_channel(0.0), eps)
    assert abs(s.alpha[0, 0] - np.cos(eps)) < 1e-14
    assert abs(abs(s.alpha[0, 0]) ** 2 - np.cos(eps) ** 2) < 1e-14


def test_mix_at_half_pi_swaps_modes():
    s = gq.channel_symplectic(gq.mix_channel(0.0), np.pi / 2)
    assert np.allclose(np.abs(s.alpha), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_twomode_squeeze_matrix_form(rng):
    for _ in range(10):
        eps, chi = rng.uniform(-1.5, 1.5), rng.uniform(-np.pi, np.pi)
        s = gq.channel_symplectic(gq.twomode_squeeze_channel(chi), eps)
        assert np.allclose(s.alpha, np.cosh(eps) * np.eye(2), atol=1e-13)
        off = -np.exp(1j * chi) * np.sinh(eps)
        assert np.allclose(s.beta, [[0, off], [off, 0]], atol=1e-13)


def test_combined_reduces_to_phase(rng):
    spec = gq.combined_channel(1.0, 0.0, 0.0)
    for _ in range(10):
        eps = rng.uniform(-2, 2)
        a = gq.channel_symplectic(spec, eps).matrix
        b = gq.channel_symplectic(gq.phase_channel(), eps).matrix
        assert np.allclose(a, b, atol=1e-13)


def test_channel_symplectic_matches_closed_forms(rng):
    for _ in range(40):
        eps, chi = rng.uniform(-1.5, 1.5), rng.uniform(-np.pi, np.pi)
        for spec, ref in (
                (gq.phase_channel(), phase_matrix(eps)),
                (gq.squeeze_channel(chi), squeeze_matrix(eps, chi)),
                (gq.squeeze_channel(chi, mode=1, modes=2), squeeze_matrix(eps, chi, 1, 2)),
                (gq.mix_channel(chi), mix_matrix(eps, chi)),
                (gq.twomode_squeeze_channel(chi), twomode_squeeze_matrix(eps, chi))):
            got = gq.channel_symplectic(spec, eps).matrix
            assert np.max(np.abs(got - ref.matrix)) < 1e-13 * np.max(np.abs(ref.matrix))


def test_combined_nilpotent_is_linear(rng):
    # omega_p = omega_s: (iKW)^2 = 0, so S(eps) = I + eps iKW exactly
    for _ in range(10):
        omega, chi, eps = rng.uniform(-2, 2), rng.uniform(-np.pi, np.pi), rng.uniform(-1.5, 1.5)
        spec = gq.combined_channel(omega, omega, chi)
        want = np.eye(2) + eps * spec.generator.ikw()
        got = gq.channel_symplectic(spec, eps).matrix
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_group_law_and_symplectic(rng):
    for spec in catalog_channels(rng):
        for _ in range(10):
            e1, e2 = rng.uniform(-1, 1, 2)
            s1 = gq.channel_symplectic(spec, e1)
            s2 = gq.channel_symplectic(spec, e2)
            s12 = gq.channel_symplectic(spec, e1 + e2)
            assert gq.symplectic_residual(s1) < 1e-12
            assert np.max(np.abs((s1 @ s2).matrix - s12.matrix)) < 1e-10


def test_cataloged_generators_have_zero_gamma(rng):
    for spec in catalog_channels(rng):
        assert not np.any(spec.generator.gamma_tilde)
        assert spec.kind in CATALOG


# --- real forms (reference matrices hardcoded from the quadrature convention)

def rotation_re(theta):
    return np.array([[np.cos(theta), np.sin(theta)],
                     [-np.sin(theta), np.cos(theta)]])


def squeeze_re(r, chi):
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array([[ch - np.cos(chi) * sh, -np.sin(chi) * sh],
                     [-np.sin(chi) * sh, ch + np.cos(chi) * sh]])


def mix_re(theta, chi):
    c, s = np.cos(theta), np.sin(theta)
    cc, sc = np.cos(chi) * s, np.sin(chi) * s
    return np.array([[c, cc, 0, -sc],
                     [-cc, c, -sc, 0],
                     [0, sc, c, cc],
                     [sc, 0, -cc, c]])


def twomode_squeeze_re(r, chi):
    ch = np.cosh(r)
    cs, ss = np.cos(chi) * np.sinh(r), np.sin(chi) * np.sinh(r)
    return np.array([[ch, -cs, 0, -ss],
                     [-cs, ch, -ss, 0],
                     [0, -ss, ch, cs],
                     [-ss, 0, cs, ch]])


def test_real_forms_match_reference(rng):
    for _ in range(25):
        theta = rng.uniform(-np.pi, np.pi)
        chi = rng.uniform(-np.pi, np.pi)
        r = rng.uniform(-1.5, 1.5)
        assert np.allclose(gq.complex_to_real_matrix(phase_matrix(theta).matrix),
                           rotation_re(theta), atol=1e-12)
        assert np.allclose(gq.complex_to_real_matrix(squeeze_matrix(r, chi).matrix),
                           squeeze_re(r, chi), atol=1e-12)
        assert np.allclose(gq.complex_to_real_matrix(mix_matrix(theta, chi).matrix),
                           mix_re(theta, chi), atol=1e-12)
        assert np.allclose(gq.complex_to_real_matrix(twomode_squeeze_matrix(r, chi).matrix),
                           twomode_squeeze_re(r, chi), atol=1e-12)


def test_channel_shift_zero_for_catalog(rng):
    for spec in catalog_channels(rng):
        assert not np.any(gq.channel_shift(spec, 0.7))


def test_channel_shift_custom_gamma():
    w = GeneratorW(np.zeros((1, 1)), np.zeros((1, 1)), np.array([0.5 + 0.1j]))
    spec = gq.custom_channel(w)
    b = gq.channel_shift(spec, 2.0)
    assert np.allclose(b, 2.0 * w.gamma, atol=1e-14)


def test_channel_json_round_trip(rng):
    for spec in catalog_channels(rng):
        back = channel_from_dict(channel_to_dict(spec))
        assert back.kind == spec.kind
        assert np.allclose(back.generator.matrix, spec.generator.matrix, atol=1e-15)
    w = GeneratorW(np.array([[0.3]]), np.array([[0.2j]]), np.array([1.0 - 0.5j]))
    spec = gq.custom_channel(w)
    back = channel_from_dict(channel_to_dict(spec))
    assert np.allclose(back.generator.matrix, w.matrix, atol=1e-15)
    assert np.allclose(back.generator.gamma, w.gamma, atol=1e-15)


def test_channel_from_dict_rejects_unknown():
    with pytest.raises(StructureError):
        channel_from_dict({"kind": "nonsense"})
