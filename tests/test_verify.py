"""The verification harness: registry, statuses, determinism."""

import dataclasses
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zeemanzones import exact, pathint, spectrum, verify
from zeemanzones.exact import ZonePoly
from zeemanzones.quadrature import QuadRule
from zeemanzones.verify import (CHECKS, SUITES, CheckResult, report_json,
                                run_suite)


def test_registry_ids_unique_and_suited():
    ids = [cid for cid, _, _ in CHECKS]
    assert len(ids) == len(set(ids))
    assert all(s in SUITES for _, s, _ in CHECKS)


# the ordered (check_id, suite) registry; the report's IDs and order follow
# it, so no check may be dropped, renamed or moved without this list changing
PINNED = [
    ("laguerre.recurrence_vs_explicit", "laguerre"),
    ("laguerre.rodrigues", "laguerre"),
    ("laguerre.derivative_identity", "laguerre"),
    ("laguerre.sum_identity", "laguerre"),
    ("laguerre.rec3_identity", "laguerre"),
    ("laguerre.composition", "laguerre"),
    ("laguerre.gaussian_moment_quadrature", "laguerre"),
    ("spectrum.eigen_residual", "spectrum"),
    ("spectrum.vandermonde_split", "spectrum"),
    ("spectrum.upsilon_independence", "spectrum"),
    ("spectrum.isochromatic_zones", "spectrum"),
    ("spectrum.zone_of_consistency", "spectrum"),
    ("spectrum.magnetic_orthogonality", "spectrum"),
    ("spectrum.radial_laguerre", "spectrum"),
    ("projections.idempotency", "projections"),
    ("projections.orthogonality", "projections"),
    ("projections.reproducing", "projections"),
    ("quadrature.convergence_ladder", "projections"),
    ("quadrature.determinism", "projections"),
    ("global.heat_equation", "global_kernels"),
    ("global.schrodinger_equation", "global_kernels"),
    ("global.ck_wk", "global_kernels"),
    ("global.df_divergence_note", "global_kernels"),
    ("zonal_wk.closed_vs_numeric_a0", "zonal_wk"),
    ("zonal_wk.closed_vs_numeric_a1", "zonal_wk"),
    ("zonal_wk.lt1_printed", "zonal_wk"),
    ("zonal_wk.chapman_kolmogorov", "zonal_wk"),
    ("zonal_wk.delta_limit", "zonal_wk"),
    ("zonal_wk.longterm_vanish_t0", "zonal_wk"),
    ("zonal_wk.spectral_series", "zonal_wk"),
    ("zonal_df.closed_vs_numeric_a0", "zonal_df"),
    ("zonal_df.closed_vs_numeric_a1", "zonal_df"),
    ("zonal_df.lt1_printed", "zonal_df"),
    ("zonal_df.chapman_kolmogorov", "zonal_df"),
    ("zonal_df.delta_limit", "zonal_df"),
    ("zonal_df.longterm_vanish_t0", "zonal_df"),
    ("zonal_df.spectral_series", "zonal_df"),
    ("thermo.trace_vs_closed", "thermo"),
    ("thermo.spectral_sum", "thermo"),
    ("thermo.dominant_trace", "thermo"),
    ("thermo.longterm_trace_zero", "thermo"),
    ("thermo.riemann_relation", "thermo"),
    ("thermo.hurwitz_conditional", "thermo"),
    ("thermo.mehler_comparison", "thermo"),
    ("pathint.slicing_invariance", "pathint"),
    ("pathint.uniform_bound", "pathint"),
    ("pathint.probability_conservation", "pathint"),
    ("pathint.discrete_feynman_kac", "pathint"),
    ("pathint.nu_consistency", "pathint"),
    ("pathint.second_form_identity", "pathint"),
    ("pathint.rn_consistency", "pathint"),
]


def test_registry_pinned():
    assert len(PINNED) == 51
    assert [(cid, suite) for cid, suite, _ in CHECKS] == PINNED


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_laguerre_suite_passes():
    results = run_suite("laguerre")
    assert results and all(r.status == "PASS" for r in results)


def test_spectrum_suite_passes():
    results = run_suite("spectrum")
    assert results and all(r.status == "PASS" for r in results)


def test_report_json_shape():
    results = run_suite("laguerre")
    doc = json.loads(report_json(results))
    assert set(doc) == {"summary", "checks"}
    assert doc["summary"]["PASS"] == len(results)
    for c in doc["checks"]:
        assert "seconds" not in c  # wall time stays out of the byte contract
        assert c["status"] in ("PASS", "FAIL", "ERROR")


def test_exceptions_become_error_status():
    def boom():
        raise ValueError("synthetic failure")

    res = verify._run_one("synthetic.boom", boom)
    assert res.status == "ERROR"
    assert "synthetic failure" in res.note


def test_unexpected_exception_is_error_not_abort(monkeypatch):
    def broken():
        raise TypeError("synthetic bug")

    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + [
        ("laguerre.synthetic_broken", "laguerre", broken)])
    results = run_suite("laguerre")
    by_id = {r.check_id: r for r in results}
    assert by_id["laguerre.synthetic_broken"].status == "ERROR"
    assert "TypeError" in by_id["laguerre.synthetic_broken"].note
    assert all(r.status == "PASS" for r in results
               if r.check_id != "laguerre.synthetic_broken")


def test_tolerance_zero_means_exact_flag():
    ok = CheckResult("x", {}, 0.0, 0.0, "PASS", "", 0.0)
    assert ok.to_json_dict()["residual"] == 0.0


def test_thread_determinism_small_suite():
    a = report_json(run_suite("spectrum", threads=1))
    b = report_json(run_suite("spectrum", threads=4))
    assert a == b


def test_rec3_identity_can_fail():
    # the degenerate L_{a-1} coefficient a (right only for alpha = 0)
    assert not verify._rec3_residual(0, 3, 3).terms
    assert not verify._rec3_residual(1, 3, 3 + 1).terms
    assert any(verify._rec3_residual(1, a, a).terms for a in range(1, 13))


def test_pathint_checks_report_what_ran():
    results = run_suite("pathint")
    assert len(results) == 7
    for r in results:
        assert r.status == "PASS", r.check_id
        assert r.params["n"] and r.params["T"]
        assert r.params["quad_degree"] == 40


def _run_check(check_id):
    func = dict((cid, fn) for cid, _, fn in CHECKS)[check_id]
    return verify._run_one(check_id, func)


@pytest.mark.parametrize("check_id", [cid for cid, _, _ in CHECKS])
def test_checks_report_what_ran(check_id):
    r = _run_check(check_id)
    assert r.status == "PASS"
    assert r.params
    if check_id.startswith("zonal_"):
        assert r.params["sigma"] == [check_id[6:8]]
    if check_id.split(".")[1] in ("closed_vs_numeric_a0",
                                  "closed_vs_numeric_a1", "lt1_printed"):
        assert r.params["t"] == [0.5, 1.0]


def test_reported_params_are_what_ran(monkeypatch):
    # the (sigma, T, n, degree) chains slicing_invariance evaluates are
    # exactly the product of the sets it reports
    calls = set()
    real = pathint.cylinder_value

    def recorded(sigma, a, slicing, F, x, y, params, quad_degree=24, **kw):
        calls.add((sigma, slicing.total_time, slicing.n_slices, quad_degree))
        return real(sigma, a, slicing, F, x, y, params, quad_degree, **kw)

    monkeypatch.setattr(pathint, "cylinder_value", recorded)
    check_id = "pathint.slicing_invariance"
    r = _run_check(check_id)
    assert r.status == "PASS"
    p = r.params
    assert p["quad_degree"] == 40
    assert calls == set(itertools.product(p["sigma"], p["T"], p["n"], [40]))


def test_nan_residual_is_not_pass(monkeypatch):
    # a NaN kernel must not report PASS 0.0 (max(0.0, nan) is 0.0); the
    # stand-in takes the kernel's arguments and gives one NaN per point
    # pair, so the rule sees the non-finite integrand itself
    def nan_kernel(a, X, Y, params):
        return np.full(np.broadcast_shapes(np.shape(X)[:-1],
                                           np.shape(Y)[:-1]), np.nan)

    monkeypatch.setattr(verify, "projection_kernel", nan_kernel)
    by_id = {r.check_id: r for r in run_suite("projections")}
    for cid in ("projections.idempotency", "projections.orthogonality"):
        assert by_id[cid].status == "ERROR", cid
        assert by_id[cid].note.startswith("NonFiniteIntegrand"), cid
    assert verify._worst([0.5, np.nan, 2.0]) != verify._worst([0.5, 2.0])
    assert verify._worst([]) == 0.0 and verify._worst([1e-9, 3.0]) == 3.0


@pytest.mark.parametrize("k,level", [(2, -1), (4, -2)])
def test_upsilon_independence_compares_every_level(monkeypatch, k, level):
    # drop one zone-1 level of one geometry: the last k=2 level (a lookup
    # by p would compare it against NaN) or a k=4 level that shares its p
    # with the next one (a lookup by p would never see it); comparing the
    # whole ordered lists fails either way
    table = verify.spectrum_table

    def one_level_short(params, *args, **kwargs):
        entries = table(params, *args, **kwargs)
        if params.k != k:
            return entries
        drop = [e for e in entries if e.zone == 1][level]
        return [e for e in entries if e is not drop]

    monkeypatch.setattr(verify, "spectrum_table", one_level_short)
    by_id = {r.check_id: r for r in run_suite("spectrum")}
    assert by_id["spectrum.upsilon_independence"].status == "FAIL"


def _multiplicities_of_zone_0(table):
    # k=4 zone-1 levels get the multiplicities of zone 0, level by level
    def patched(params, *args, **kwargs):
        entries = table(params, *args, **kwargs)
        if params.k != 4:
            return entries
        mu = iter([e.multiplicity for e in entries if e.zone == 0])
        return [dataclasses.replace(e, multiplicity=next(mu))
                if e.zone == 1 else e for e in entries]
    return patched


def _offset(kernel):
    return lambda *args, **kwargs: kernel(*args, **kwargs) + 1e-3


def _midpoint_dependent(kernel):
    # the midpoint is one of the two points of each kernel in the chaining
    # integrand, so a factor growing with |X| + |Y| depends on it
    return lambda sigma, t, X, Y, params: kernel(sigma, t, X, Y, params) * (
        1 + 1e-3 * np.sum(np.abs(X) + np.abs(Y)))


def _relative_1e_8(f):
    return lambda *args, **kwargs: f(*args, **kwargs) * (1 + 1e-8)


def _second_call_differs(conv):
    calls = itertools.count()
    return lambda *args: conv(*args) * (1 + next(calls) * 1e-12)


@pytest.mark.parametrize("check_id,subject,plant", [
    ("spectrum.isochromatic_zones", "spectrum_table",
     _multiplicities_of_zone_0),
    ("zonal_wk.delta_limit", "projection_kernel", _offset),
    ("zonal_df.delta_limit", "projection_kernel", _offset),
    ("global.df_divergence_note", "global_kernel", _midpoint_dependent),
    ("quadrature.determinism", "_axis_conv", _second_call_differs),
    ("thermo.hurwitz_conditional", "hurwitz_zeta", _relative_1e_8),
])
def test_declared_checks_can_fail(monkeypatch, check_id, subject, plant):
    # each check looks its subject up when it runs, so a planted fault in
    # the subject reaches it and turns it into a FAIL
    monkeypatch.setattr(verify, subject, plant(getattr(verify, subject)))
    r = _run_check(check_id)
    assert r.status == "FAIL", (r.residual, r.note)


def _plant_one_seventh(monkeypatch, module, name, index, at):
    # the polynomial in one variable `module.name` returns for arguments
    # where at(*args) holds gets 1/7 z^index added
    original = getattr(module, name)

    def planted(*args):
        out = original(*args)
        if at(*args):
            out = out + ZonePoly(1, {((index,), (0,)): Fraction(1, 7)})
        return out

    monkeypatch.setattr(module, name, planted)


def test_eigen_residual_sees_one_wrong_hermite_coefficient(monkeypatch):
    # H_2 with 1/7 added to its constant term is no eigenfunction; the first
    # case that meets it is the one-block k=2 geometry at order 2
    _plant_one_seventh(monkeypatch, spectrum, "hermite_scaled_exact", 0,
                       lambda l, lam: l == 2)
    r = _run_check("spectrum.eigen_residual")
    assert r.status == "FAIL"
    assert r.note == "geometry=[1, 2], order=2"


def test_magnetic_orthogonality_sees_one_wrong_hermite_coefficient(monkeypatch):
    # the magnetic parts of the planted eigenfunctions stay orthogonal, but
    # H_2 + 1/7 is no longer orthogonal to H_0 = 1, so the order-2
    # eigenfunctions H_2(X^0) and H_2(X^1) on the k=2 geometry are not
    _plant_one_seventh(monkeypatch, spectrum, "hermite_scaled_exact", 0,
                       lambda l, lam: l == 2)
    r = _run_check("spectrum.magnetic_orthogonality")
    assert r.status == "FAIL"
    assert r.note == "geometry=[1, 2], order=2"


def test_composition_sees_one_wrong_laguerre_coefficient(monkeypatch):
    # 1/7 on the t-coefficient of L_3^{(0)}: alpha = 0 compares the planted
    # polynomial with itself, and alpha = 1 first reads L_3^{(0)} at n = 3
    _plant_one_seventh(monkeypatch, exact, "laguerre_exact", 1,
                       lambda alpha, n: (alpha, n) == (0, 3))
    r = _run_check("laguerre.composition")
    assert r.status == "FAIL"
    assert r.note == "alpha=1, n=3"


def test_recurrence_vs_explicit_sees_a_relative_error_of_1e_9(monkeypatch):
    # the float recurrence passes at about 1e-11 against its 1e-10
    # tolerance; off by a factor 1 + 1e-9 it reads about 1e-9
    laguerre = verify.laguerre
    monkeypatch.setattr(verify, "laguerre",
                        lambda *args: laguerre(*args) * (1 + 1e-9))
    r = _run_check("laguerre.recurrence_vs_explicit")
    assert r.status == "FAIL", (r.residual, r.tolerance)


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_delta_limit_sees_offset_at_every_zone(monkeypatch, sigma):
    # the last time, t = 1e-4, leaves a true gap far below a 1e-3 error of
    # delta^{(a)}, so that error breaks the O(t) approach at every zone
    assert all(verify._delta_limit(sigma, a) for a in range(4))
    monkeypatch.setattr(verify, "projection_kernel",
                        _offset(verify.projection_kernel))
    assert not any(verify._delta_limit(sigma, a) for a in range(4))


def test_k4_idempotency_memory_is_bounded_by_the_block():
    # the moment check's k=4 rule, the one verify grid larger than a block:
    # its 24^4 nodes are integrated one 24^3 block at a time; the whole grid
    # with its temporaries at once takes about 40 MB
    tracemalloc.start()
    try:
        verify._moment_gap(40, 4, 1.0 + 0.5j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6


def test_idempotency_sees_a_relative_error_of_1e_10(monkeypatch):
    # delta^{(a)} off by a factor 1 + 1e-10 leaves a residual of about
    # 1e-10 |delta^{(a)}|, far above the exact rule's rounding
    kernel = verify.projection_kernel
    monkeypatch.setattr(verify, "projection_kernel",
                        lambda *args, **kwargs: kernel(*args, **kwargs)
                        * (1 + 1e-10))
    r = _run_check("projections.idempotency")
    assert r.status == "FAIL", (r.residual, r.tolerance)


_CONVOLUTION_CHECKS = ("projections.idempotency", "projections.orthogonality",
                       "projections.reproducing", "global.ck_wk",
                       "zonal_wk.chapman_kolmogorov",
                       "zonal_df.chapman_kolmogorov")


def test_convolution_checks_take_their_nodes_from_the_zones(monkeypatch):
    # each convolution's exact rule has 2a+1 nodes at most (zone a <= 3),
    # checked at two more: no tuned degree, no 24^4 grid
    degrees = []
    post_init = QuadRule.__post_init__

    def recorded(self):
        degrees.append(self.degree)
        post_init(self)

    monkeypatch.setattr(QuadRule, "__post_init__", recorded)
    checks = dict((cid, fn) for cid, _, fn in CHECKS)
    for check_id in _CONVOLUTION_CHECKS:
        degrees.clear()
        assert verify._run_one(check_id, checks[check_id]).status == "PASS"
        assert degrees and max(degrees) <= 2 * max(verify._ZONES) + 3, \
            check_id


def test_quadrature_checks_integrate_by_blocks(monkeypatch):
    # every quadrature check integrates through `integrate`, never over a
    # whole grid of its own
    def no_grid(self):
        raise AssertionError("a whole tensor grid was built")

    monkeypatch.setattr(QuadRule, "nodes_weights", no_grid)
    for suite in ("laguerre", "projections", "global_kernels", "zonal_wk",
                  "zonal_df"):
        results = run_suite(suite)
        assert results and all(r.status == "PASS" for r in results), suite
