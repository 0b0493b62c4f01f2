"""Time-sliced cylinder approximants of the zonal path integrals."""

import inspect
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from zeemanzones import kernels, pathint
from zeemanzones.cli import DEFAULTS
from zeemanzones.kernels import (SingularTimeError, plane_step,
                                 projection_kernel, zonal_kernel_closed,
                                 zonal_kernel_numeric)
from zeemanzones.params import J_apply, MagneticParams, sigma_value
from zeemanzones.quadrature import QuadratureError, tensor_points
from zeemanzones.pathint import (TimeSlicing, cylinder_value,
                                 feynman_kac_chain, nu_cylinder_value,
                                 probability_conservation,
                                 radon_nikodym_consistency,
                                 second_form_residual, uniform_bound_check)


X0 = np.array([0.3, -0.2])
Y0 = np.array([0.1, 0.4])
X4 = np.array([0.3, -0.2, 0.15, 0.25])
Y4 = np.array([0.1, 0.4, -0.3, 0.05])


def test_chain_degree_defaults_match_cli():
    # a library caller who omits the degree gets the grid the CLI runs
    defaults = {name: inspect.signature(fn).parameters["quad_degree"].default
                for name, fn in vars(pathint).items()
                if inspect.isfunction(fn) and fn.__module__ == pathint.__name__
                and "quad_degree" in inspect.signature(fn).parameters}
    defaults = {name: d for name, d in defaults.items()
                if d is not inspect.Parameter.empty}
    assert len(defaults) == 2
    assert set(defaults.values()) == {DEFAULTS["quad_degree"]}


def test_time_slicing_grid():
    sl = TimeSlicing(1.0, 4)
    assert sl.step == pytest.approx(0.25)
    with pytest.raises(ValueError):
        TimeSlicing(1.0, 0)


@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pinned_chain_reproduces_kernel(p2, sigma, n):
    # semigroup exactness: F = 1 chains collapse to the kernel itself
    ref = zonal_kernel_closed(sigma, 0, 0.5, X0, Y0, p2).value
    got = cylinder_value(sigma, 0, TimeSlicing(0.5, n), None, X0, Y0, p2,
                         quad_degree=24)
    assert abs(got - ref) < 1e-8


def test_pinned_chain_zone1(p2):
    ref = zonal_kernel_closed("wk", 1, 0.5, X0, Y0, p2).value
    got = cylinder_value("wk", 1, TimeSlicing(0.5, 2), None, X0, Y0, p2,
                         quad_degree=24)
    assert abs(got - ref) < 1e-8


@pytest.mark.parametrize("sigma,tol", [("wk", 1e-10), ("df", 1e-6)])
def test_pinned_chain_zone2(p2, sigma, tol):
    # closed plane-form zone-2 steps against the numeric oracle
    ref = zonal_kernel_numeric(sigma, 2, 0.5, X0, Y0, p2)
    got = cylinder_value(sigma, 2, TimeSlicing(0.5, 3), None, X0, Y0, p2,
                         quad_degree=16)
    assert abs(got - ref) <= tol * abs(ref)


@pytest.mark.parametrize("sigma", ["wk", "df"])
@pytest.mark.parametrize("a", [2, 3, 4, 5, 6])
def test_pinned_chain_higher_zones_full_degree(p2, sigma, a):
    # closed-form zone-a steps on the default degree-40 grid
    ref = zonal_kernel_closed(sigma, a, 0.5, X0, Y0, p2).value
    got = cylinder_value(sigma, a, TimeSlicing(0.5, 3), None, X0, Y0, p2,
                         quad_degree=40)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_per_slice_functional_factorizes(p2):
    # F = prod f_j with f_j = 1 must agree with F = None
    sl = TimeSlicing(0.6, 3)
    fs = [lambda M: np.ones(M.shape[0]) for _ in range(2)]
    a = cylinder_value("wk", 0, sl, fs, X0, Y0, p2, quad_degree=16)
    b = cylinder_value("wk", 0, sl, None, X0, Y0, p2, quad_degree=16)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("chain", [
    lambda sl, F, p: cylinder_value("wk", 0, sl, F, X0, Y0, p, quad_degree=8),
    lambda sl, F, p: nu_cylinder_value(sl, F, X0, Y0, p, quad_degree=8),
], ids=["cylinder", "nu"])
def test_callable_F_refused(p2, chain):
    # F is None or a sequence of per-point factors; a single (joint)
    # callable has no chain path
    def joint(Ms):
        return np.exp(-0.1 * (Ms ** 2).sum(axis=(-2, -1)))

    for n in (1, 3):
        with pytest.raises(ValueError, match="sequence of per-point"):
            chain(TimeSlicing(0.6, n), joint, p2)


def test_factor_shape_checked_before_first_step(p2, monkeypatch):
    # an (N, 1) factor would broadcast the chain vector to N x N
    sl = TimeSlicing(0.6, 3)
    calls = []
    real_step = pathint.plane_step
    monkeypatch.setattr(pathint, "plane_step",
                        lambda *a, **kw: calls.append(a) or real_step(*a, **kw))
    with pytest.raises(ValueError):
        cylinder_value("wk", 0, sl, [lambda m: m[:, :1]] * 2, X0, Y0, p2,
                       quad_degree=8)
    assert calls == []
    # scalars and (N,) arrays broadcast to one value per grid point
    F = [lambda m: 1.0, lambda m: np.ones(len(m))]
    ones = cylinder_value("wk", 0, sl, F, X0, Y0, p2, quad_degree=8)
    assert ones == cylinder_value("wk", 0, sl, None, X0, Y0, p2,
                                  quad_degree=8)


def test_unpinned_mass_slicing_invariant(p2):
    # free chains all integrate to the one-step zonal mass int d(T, x, u) du
    vals = [cylinder_value("df", 0, TimeSlicing(0.4, n), None, X0, None, p2,
                           quad_degree=24, pinned=False)
            for n in (1, 2, 3)]
    assert abs(vals[1] - vals[0]) < 1e-8
    assert abs(vals[2] - vals[0]) < 1e-8


def test_df_singular_slicing_rejected(p2b):
    with pytest.raises(SingularTimeError):
        cylinder_value("df", 0, TimeSlicing(np.pi, 2), None, X0, Y0, p2b,
                       quad_degree=8)


def test_nu_chain_matches_projection(p2):
    ref = projection_kernel(0, X0, Y0, p2)
    for n in (1, 2, 3):
        got = nu_cylinder_value(TimeSlicing(0.5, n), None, X0, Y0, p2,
                                quad_degree=24)
        assert abs(got - ref) < 1e-8


def test_uniform_bound(p2):
    out = uniform_bound_check(TimeSlicing(0.5, 3), X0, p2, quad_degree=16)
    assert out["all_ok"]
    assert out["bound"] == pytest.approx((2 * np.pi) ** 1)


def test_probability_conservation(p2):
    for t in (0.3, 0.8):
        assert probability_conservation(t, X0, p2) < 1e-8


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_feynman_kac_weight_is_product_of_chain_steps(sigma):
    # at lam = 2 the path weight e^{s lam (-k T/2 - 2 lam int |omega|^2)},
    # its time integral the left-endpoint sum, carries lam^2, as the
    # chain's step does; the step weight is the `_fk_step` coefficient
    # minus the delta^{(0)} part 1, on the pairing <m, m' + i J m'>
    lam, k, T, n = 2.0, 2, 0.5, 4
    omega = np.tile([0.3, -0.2], (n + 1, 1))
    coeff, shift = pathint._fk_step(sigma, T / n, lam, exact=False)
    steps = [np.exp(shift + lam * (coeff - 1)
                    * (m @ m2 + 1j * (m @ J_apply(m2))))
             for m, m2 in zip(omega[:-1], omega[1:])]
    action = T / n * np.sum(omega[:-1] ** 2)
    weight = np.exp(sigma_value(sigma) * lam
                    * (-0.5 * k * T - 2.0 * lam * action))
    assert weight == pytest.approx(complex(np.prod(steps)), rel=1e-12)


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_feynman_kac_chain_residual_decreases(p2, sigma):
    ref = zonal_kernel_closed(sigma, 0, 0.5, X0, Y0, p2).value
    res = [abs(feynman_kac_chain(sigma, TimeSlicing(0.5, n), X0, Y0, p2,
                                 quad_degree=24) - ref)
           for n in (1, 2, 4)]
    assert res[0] > res[1] > res[2]


def test_feynman_kac_exact_step_is_identity(p2):
    ref = zonal_kernel_closed("wk", 0, 0.5, X0, Y0, p2).value
    got = feynman_kac_chain("wk", TimeSlicing(0.5, 3), X0, Y0, p2,
                            quad_degree=24, exact_step=True)
    assert abs(got - ref) < 1e-10


def test_radon_nikodym_consistency(p2):
    out = radon_nikodym_consistency(TimeSlicing(0.5, 2), X0, Y0, p2,
                                    quad_degree=24)
    assert out["residual_exact"] < 1e-10
    out4 = radon_nikodym_consistency(TimeSlicing(0.5, 8), X0, Y0, p2,
                                     quad_degree=24)
    assert out4["residual_left"] < out["residual_left"]


def test_radon_nikodym_exact_check_can_fail(p2, monkeypatch):
    # the ratio without its constant -(1/2) sum k lam dt (i - 1) must miss
    ratio = pathint._rn_ratio
    monkeypatch.setattr(pathint, "_rn_ratio",
                        lambda dt, params, exact: (ratio(dt, params, exact)[0],
                                                   0.0))
    out = radon_nikodym_consistency(TimeSlicing(0.5, 2), X0, Y0, p2,
                                    quad_degree=24)
    assert out["residual_exact"] > 1e-3


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_second_form_residual(p2, sigma):
    assert second_form_residual(sigma, TimeSlicing(0.5, 2), X0, Y0, p2,
                                quad_degree=24) < 1e-8


# ---------------------------------------------------------------------------
# plane-form step matrices and the chain loop
# ---------------------------------------------------------------------------

def _old_delta_diag_action(sigma, dt, M, Mp, params, exact):
    """The per-step Feynman-Kac weight in its generic broadcast form, kept
    as the reference for the plane-form steps."""
    s = 1.0 if sigma == "wk" else 1j
    expo = 0j
    for b, sl in zip(params.blocks, params.block_slices()):
        expo = expo - 0.5 * b.k * b.lam * dt * s
        Mi, Mpi = M[..., sl], Mp[..., sl]
        pair = (np.sum(Mi * Mpi, axis=-1)
                + 1j * (Mi[..., 1::2] * Mpi[..., 0::2]
                        - Mi[..., 0::2] * Mpi[..., 1::2]).sum(axis=-1))
        coeff = (np.exp(-2 * b.lam * dt * s) - 1 if exact
                 else -2 * b.lam * dt * s)
        expo = expo + b.lam * coeff * pair
    return np.exp(expo)


def _old_step(sigma, dt, G, params, exact):
    return (projection_kernel(0, G[:, None, :], G[None, :, :], params)
            * _old_delta_diag_action(sigma, dt, G[:, None, :], G[None, :, :],
                                     params, exact))


@pytest.mark.parametrize("blocks", [[(1.0, 2)], [(1.0, 2), (2.0, 2)],
                                    [(1.5, 4)]])
@pytest.mark.parametrize("exact", [True, False])
def test_action_weighted_steps_match_generic_products(blocks, exact):
    params = MagneticParams.make(blocks)
    lams = params.plane_lambdas()
    grids = [pathint.slicing_grid(lam, 10 if params.k == 2 else 4)[0]
             for lam in lams]
    P = tensor_points([ax for G in grids for ax in G])
    dt = 0.15

    def step(form):
        # each plane's step operator on the identity gives its step kernel
        # on G x G; the step kernel on R^k is their Kronecker product
        return reduce(np.kron, [
            plane_step(G, G, lam, *form(lam), 0)(np.eye(len(G[0]) * len(G[1])))
            for G, lam in zip(grids, lams)])

    for sigma in ("wk", "df"):
        ref = _old_step(sigma, dt, P, params, exact)
        got = step(lambda lam: pathint._fk_step(sigma, dt, lam, exact))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    # the WK step reweighted by the Radon-Nikodym ratio is the DF step
    def reweighted(lam):
        coeff, shift = pathint._fk_step("wk", dt, lam, exact)
        ratio, const = pathint._rn_ratio(dt, lam, exact)
        return coeff + ratio, shift + const

    got = step(reweighted)
    ref = _old_step("df", dt, P, params, exact)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_step_factors_built_once(p2, monkeypatch):
    # the grid-to-grid factors are built once per chain and applied at
    # every interior step
    calls = []
    build = pathint.plane_step

    def counted(X, Y, lam, kap, shift, a):
        calls.append((len(X[0]), len(Y[0])))
        return build(X, Y, lam, kap, shift, a)

    monkeypatch.setattr(pathint, "plane_step", counted)
    got = cylinder_value("wk", 0, TimeSlicing(0.6, 6), None, X0, Y0, p2,
                         quad_degree=12)
    assert calls.count((12, 12)) == 1
    assert len(calls) == 3
    ref = zonal_kernel_closed("wk", 0, 0.6, X0, Y0, p2).value
    assert abs(got - ref) < 1e-8


@pytest.mark.parametrize("a", [1, 2])
def test_each_plane_chain_runs_once(p2, p4, monkeypatch, a):
    # a lone plane runs only its zone-a chain; on two planes every
    # (plane, level) chain runs once, three step builds each at n = 3
    calls = []
    build = pathint.plane_step

    def counted(X, Y, lam, kap, shift, a):
        calls.append((lam, a))
        return build(X, Y, lam, kap, shift, a)

    monkeypatch.setattr(pathint, "plane_step", counted)
    for params, x, y, levels in ((p2, X0, Y0, [a]),
                                 (p4, X4, Y4, range(a + 1))):
        calls.clear()
        got = cylinder_value("wk", a, TimeSlicing(0.6, 3), None, x, y,
                             params, quad_degree=12)
        assert sorted(calls) == sorted(3 * [(lam, m) for lam in
                                            params.plane_lambdas()
                                            for m in levels])
        ref = zonal_kernel_closed("wk", a, 0.6, x, y, params).value
        assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))


# (run, zone, pinned, chains run): radon_nikodym_consistency runs its
# exact-step DF chain and its two reweighted WK chains
CHAIN_VARIANTS = {
    "cylinder_pinned": (lambda sl, x, y, p: cylinder_value(
        "df", 1, sl, None, x, y, p, quad_degree=6), 1, True, 1),
    "cylinder_free": (lambda sl, x, y, p: cylinder_value(
        "wk", 1, sl, None, x, None, p, quad_degree=6, pinned=False),
        1, False, 1),
    "nu": (lambda sl, x, y, p: nu_cylinder_value(sl, None, x, y, p, 6),
           0, True, 1),
    "fk_left": (lambda sl, x, y, p: feynman_kac_chain(
        "df", sl, x, y, p, 6), 0, True, 1),
    "fk_exact": (lambda sl, x, y, p: feynman_kac_chain(
        "wk", sl, x, y, p, 6, exact_step=True), 0, True, 1),
    "radon_nikodym": (lambda sl, x, y, p: radon_nikodym_consistency(
        sl, x, y, p, 6), 0, True, 3),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(CHAIN_VARIANTS))
def test_every_chain_variant_builds_its_steps_once(p2, p4, monkeypatch,
                                                   name, n):
    # per (plane, level) pair a pinned chain builds x -> y at n = 1, x -> G
    # and G -> y at n = 2, and the one G -> G step besides at n >= 3; a
    # free chain builds x -> G, and G -> G at n >= 2
    run, zone, pinned, chains = CHAIN_VARIANTS[name]
    builds = ((1, 2, 3, 3) if pinned else (1, 2, 2, 2))[n - 1]
    calls = []
    build = pathint.plane_step

    def counted(X, Y, lam, kap, shift, a):
        calls.append((lam, a, len(X[0]) > 1 and len(Y[0]) > 1))
        return build(X, Y, lam, kap, shift, a)

    monkeypatch.setattr(pathint, "plane_step", counted)
    for params, x, y in ((p2, X0, Y0), (p4, X4, Y4)):
        calls.clear()
        run(TimeSlicing(0.6, n), x, y, params)
        lams = params.plane_lambdas().tolist()
        levels = [zone] if len(lams) == 1 else range(zone + 1)
        pairs = [(lam, m) for lam in lams for m in levels]
        assert Counter((lam, m) for lam, m, _ in calls) == {
            pair: chains * builds for pair in pairs}
        grid_to_grid = n - pinned >= 2
        assert Counter((lam, m) for lam, m, g in calls if g) == {
            pair: chains for pair in pairs if grid_to_grid}


@pytest.mark.parametrize("a", [0, 1])
def test_chain_allocates_no_step_matrix(p2, a):
    # at degree 40 the grid has N = 1600 points, and one N x N complex
    # array would take 39 MiB
    tracemalloc.start()
    try:
        cylinder_value("df", a, TimeSlicing(0.5, 4), None, X0, Y0, p2,
                       quad_degree=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("a, ceiling_mib", [(0, 3.0), (1, 5.0)])
def test_warm_chain_memory(p2, a, ceiling_mib):
    # a warm degree-40 chain holds its grid-to-grid step, u and v (1 MiB
    # each) and at zone 1 also U_0 and V_1, and an apply adds one block of
    # y columns per term: all of them at once peaked at 4.0 and 6.9 MiB
    def chain():
        cylinder_value("df", a, TimeSlicing(0.5, 4), None, X0, Y0, p2,
                       quad_degree=40)

    chain()
    tracemalloc.start()
    try:
        chain()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling_mib * 2 ** 20


def test_k4_chain_memory(p4, xy4):
    # a two-block chain is a sum of products of one-plane chains, so its
    # arrays are those of a k=2 chain: 40^3 complex entries (1 MiB) each
    # at degree 40
    tracemalloc.start()
    try:
        cylinder_value("df", 3, TimeSlicing(0.5, 3), None, *xy4, p4,
                       quad_degree=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("blocks", [[(1.0, 2), (2.0, 2)], [(1.5, 4)]])
@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_k4_chains_match_closed_form(blocks, sigma):
    # pinned F = 1 chains of every zone up to 3 collapse to the kernel on
    # both k=4 geometries at the default degree
    params = MagneticParams.make(blocks)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    y = np.array([-0.1, 0.25, 0.2, -0.3])
    for a in range(4):
        ref = complex(zonal_kernel_closed(sigma, a, 0.5, x, y, params).value)
        for n in (1, 2, 3):
            got = cylinder_value(sigma, a, TimeSlicing(0.5, n), None, x, y,
                                 params)
            assert abs(got - ref) <= 1e-13 * abs(ref), (a, n)


@pytest.mark.parametrize("geometry", ["k2", "k4"])
@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_expanded_zones_match_slab_loop(p2, p4, sigma, geometry,
                                        monkeypatch):
    # every zone up to EXPANDED_ZONES applies its zone factor expanded in
    # the x2 half; the slab loop, run in its place as the reference, agrees
    # within 1e-14 (measured: 9.6e-16 WK and 3.7e-15 DF at zone 1; DF zone
    # 2 reaches 1.9e-14, so raising the constant to 2 fails here)
    params, x, y = (p2, X0, Y0) if geometry == "k2" else (p4, X4, Y4)
    for a in range(1, kernels.EXPANDED_ZONES + 1):
        for T in (0.3, 0.5, 1.0, 2.0, 5.0):
            for n in (2, 3, 4):
                slicing = TimeSlicing(T, n)
                got = cylinder_value(sigma, a, slicing, None, x, y, params)
                with monkeypatch.context() as m:
                    m.setattr(kernels, "EXPANDED_ZONES", 0)
                    ref = cylinder_value(sigma, a, slicing, None, x, y, params)
                assert abs(got - ref) <= 1e-14 * abs(ref), (a, T, n)


def test_separable_F_refused_on_several_planes(p4, xy4, monkeypatch):
    # a per-point F factors over the planes only on one plane
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for a refused F")

    monkeypatch.setattr(pathint, "QuadRule", no_grid)
    F = [lambda m: np.ones(len(m))] * 2
    with pytest.raises(ValueError, match="one-plane"):
        cylinder_value("wk", 0, TimeSlicing(0.6, 3), F, *xy4, p4)


_THREAD_CHAINS = """
import numpy as np
from zeemanzones.params import MagneticParams
from zeemanzones.pathint import TimeSlicing, cylinder_value
x2, y2 = np.array([0.3, -0.2]), np.array([0.1, 0.4])
x4, y4 = np.array([0.3, -0.2, 0.1, 0.2]), np.array([0.1, 0.4, -0.3, 0.05])
print(repr(cylinder_value("df", 1, TimeSlicing(0.5, 4), None, x2, y2,
                          MagneticParams.make([(1.0, 2)]), quad_degree=40)))
print(repr(cylinder_value("df", 2, TimeSlicing(0.5, 3), None, x4, y4,
                          MagneticParams.make([(1.0, 2), (2.0, 2)]),
                          quad_degree=12)))
print(repr(cylinder_value("df", 2, TimeSlicing(0.5, 3), None, x2, y2,
                          MagneticParams.make([(1.0, 2)]), quad_degree=40)))
"""


def test_chain_values_independent_of_blas_threads():
    # x2 is contracted inside BLAS; its threads must not change a bit
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        outs.append(subprocess.run(
            [sys.executable, "-c", _THREAD_CHAINS], env=env,
            capture_output=True, text=True, check=True).stdout)
    assert len(outs[0].split()) == 3
    assert outs[0] == outs[1]


def test_matrix_path_ceiling_refuses_before_allocating(monkeypatch):
    p4 = MagneticParams.make([(1.0, 2), (2.0, 2)])
    x4, y4 = np.array([0.3, -0.2, 0.1, 0.2]), np.array([0.1, 0.4, -0.3, 0.05])
    assert 162 ** 3 > pathint.STEP_ENTRY_CEILING

    def no_grid(*args, **kwargs):
        raise AssertionError("grid built above the ceiling")

    monkeypatch.setattr(pathint, "QuadRule", no_grid)
    sl = TimeSlicing(0.5, 3)
    for run in (
            lambda: cylinder_value("wk", 0, sl, None, x4, y4, p4, 162),
            lambda: nu_cylinder_value(sl, None, x4, y4, p4, 162),
            lambda: feynman_kac_chain("wk", sl, x4, y4, p4, 162),
            lambda: probability_conservation(0.5, x4, p4, 162)):
        with pytest.raises(QuadratureError, match="ceiling"):
            run()
    # a single slice needs no grid
    one = cylinder_value("wk", 0, TimeSlicing(0.5, 1), None, x4, y4, p4, 162)
    assert one == pytest.approx(complex(zonal_kernel_closed(
        "wk", 0, 0.5, x4, y4, p4).value), rel=1e-12)
