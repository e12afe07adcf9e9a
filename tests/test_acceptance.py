"""Acceptance gate: one test per reproduction criterion, each printing a
single PASS/FAIL line (run with -s to see them on success).

Reference error values and convergence rates are the published benchmark
results this solver is expected to reproduce at the stated tolerances.
"""
import math

import numpy as np
import pytest

from oracles import dense_sdfem_matrix
from sdfem.analysis import RegionSel, rate
from sdfem.discretization import assemble_system
from sdfem.harness import (
    build_case,
    interpolation_spreads,
    layer_integral_errors,
    min_coercivity_ratio,
)
from sdfem.solver import SolveMethod, SolverConfig, solve
from sdfem.stabilization import DeltaField, DeltaVariant, admissible_cstar

N_COLUMN = (8, 16, 32, 64, 128, 256, 512)
EPS_REF = 1e-8

REFERENCE = {
    "rates_eps_omegas": (1.84, 2.14, 2.06, 2.03, 2.01),  # N = 8..256
    "rate_sd_omegas_standard": 1.50,
    "rates_sd_omegas_modified": (1.29, 1.41, 1.45, 1.48, 1.49),
    "rates_eps_global": (0.63, 0.70, 0.75, 0.78, 0.81, 0.83),  # N = 8..512
    "e_global_512": 1.85e-2,
    "e_sd_omegas_8": 1.80e-1,
}


def verdict(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def column(case_runner):
    """Error norms over the full N column for one (variant, c_star)."""

    def get(variant, c_star=0.5, n_list=N_COLUMN):
        out = {}
        for N in n_list:
            case = case_runner(N, EPS_REF, variant, c_star)
            g = case.report(RegionSel.GLOBAL)
            s = case.report(RegionSel.OMEGA_S)
            out[N] = {
                "e_eps_global": g.eps_norm,
                "e_sd_global": g.sd_norm,
                "e_eps_omegas": s.eps_norm,
                "e_sd_omegas": s.sd_norm,
            }
        return out

    return get


def rates_of(col, key, n_list):
    return tuple(rate(col[n][key], col[2 * n][key]) for n in n_list)


def check_criterion_1(col):
    got = rates_of(col, "e_eps_omegas", (8, 16, 32, 64, 128))
    want = REFERENCE["rates_eps_omegas"]
    ok = all(abs(g - w) <= 0.15 for g, w in zip(got, want))
    return ok, f"rates {[f'{r:.2f}' for r in got]} vs {want} +-0.15"


def check_criterion_2(col_std, col_mod):
    got_s = rates_of(col_std, "e_sd_omegas", (8, 16, 32, 64, 128))
    ok_s = all(abs(g - REFERENCE["rate_sd_omegas_standard"]) <= 0.05 for g in got_s)
    got_m = rates_of(col_mod, "e_sd_omegas", (8, 16, 32, 64, 128))
    want_m = REFERENCE["rates_sd_omegas_modified"]
    ok_m = all(abs(g - w) <= 0.10 for g, w in zip(got_m, want_m))
    ok_m = ok_m and all(b > a for a, b in zip(got_m, got_m[1:]))
    detail = (
        f"standard {[f'{r:.2f}' for r in got_s]} vs 1.50 +-0.05; "
        f"modified {[f'{r:.2f}' for r in got_m]} vs {want_m} +-0.10, increasing"
    )
    return ok_s and ok_m, detail


def check_criterion_3(col_std, col_mod):
    ok = True
    details = []
    for name, col in (("standard", col_std), ("modified", col_mod)):
        for key in ("e_eps_global", "e_sd_global"):
            v = col[512][key]
            within = abs(v - REFERENCE["e_global_512"]) <= 0.10 * REFERENCE["e_global_512"]
            ok = ok and within
            details.append(f"{name} {key}(512)={v:.3e}")
        got = rates_of(col, "e_eps_global", (8, 16, 32, 64, 128, 256))
        want = REFERENCE["rates_eps_global"]
        rates_ok = all(abs(g - w) <= 0.05 for g, w in zip(got, want))
        ok = ok and rates_ok
        details.append(f"{name} rates {[f'{r:.2f}' for r in got]} vs {want} +-0.05")
    return ok, "; ".join(details)


def test_criterion_1_local_energy_rates(column):
    ok, detail = check_criterion_1(column(DeltaVariant.STANDARD))
    verdict(1, "local energy-norm rates, standard delta", ok, detail)


def test_criterion_2_local_sd_rates(column):
    ok, detail = check_criterion_2(
        column(DeltaVariant.STANDARD), column(DeltaVariant.MODIFIED)
    )
    verdict(2, "local SD-norm rates, both delta variants", ok, detail)


def test_criterion_3_global_norms(column):
    ok, detail = check_criterion_3(
        column(DeltaVariant.STANDARD), column(DeltaVariant.MODIFIED)
    )
    verdict(3, "global norms: N=512 magnitude and rate sequence", ok, detail)


def test_criterion_4_magnitude_calibration(case_runner, column):
    problem, mesh = build_case("paper-benchmark", 8, EPS_REF)
    cap = admissible_cstar(problem, mesh)
    target = REFERENCE["e_sd_omegas_8"]
    candidates = [round(c, 3) for c in np.linspace(0.25, cap, 16)]
    calibrated = None
    best = None
    for cs in sorted(candidates, reverse=True):
        e = case_runner(8, EPS_REF, DeltaVariant.STANDARD, cs).report(RegionSel.OMEGA_S).sd_norm
        if best is None or abs(math.log(e / target)) < abs(math.log(best[1] / target)):
            best = (cs, e)
        if target / 1.5 <= e <= target * 1.5:
            calibrated = cs
            break
    if calibrated is None:
        ok, detail = False, (
            f"no c_star in (0, {cap:g}] reaches {target:.3e} within factor 1.5; "
            f"closest c_star={best[0]:g} gives {best[1]:.3e}"
        )
    else:
        ok1, d1 = check_criterion_1(column(DeltaVariant.STANDARD, calibrated))
        ok2, d2 = check_criterion_2(
            column(DeltaVariant.STANDARD, calibrated), column(DeltaVariant.MODIFIED, calibrated)
        )
        ok3, d3 = check_criterion_3(
            column(DeltaVariant.STANDARD, calibrated), column(DeltaVariant.MODIFIED, calibrated)
        )
        ok = ok1 and ok2 and ok3
        detail = f"c_star={calibrated:g}; criteria 1-3 re-check: {ok1}, {ok2}, {ok3}"
    verdict(4, "single c_star matches the N=8 local SD magnitude", ok, detail)


def test_criterion_5_eps_robustness(case_runner):
    keys = ("e_eps_global", "e_sd_global", "e_eps_omegas", "e_sd_omegas")
    rows = []
    for eps in (1e-8, 1e-10, 1e-12, 1e-14, 1e-16):
        case = case_runner(64, eps, DeltaVariant.STANDARD, 0.5)
        g = case.report(RegionSel.GLOBAL)
        s = case.report(RegionSel.OMEGA_S)
        rows.append((g.eps_norm, g.sd_norm, s.eps_norm, s.sd_norm))
    base = rows[0]
    worst = max(
        abs(v - b) / b for row in rows[1:] for v, b in zip(row, base)
    )
    verdict(5, "norms at N=64 agree within 1% for eps down to 1e-16", worst <= 0.01,
            f"max relative spread {worst:.2e}")


def test_criterion_6_matrix_oracle():
    worst = 0.0
    for eps in (0.1, 1e-8):
        for variant in DeltaVariant:
            problem, mesh = build_case("paper-benchmark", 4, eps)
            delta = DeltaField(variant, 0.5)
            system = assemble_system(mesh, problem, delta)
            natural = np.argsort(system.dofs)  # the oracle's dof order
            A = system.matrix.toarray()[np.ix_(natural, natural)]
            O = dense_sdfem_matrix(mesh, problem, variant, 0.5)
            worst = max(worst, float(np.abs(A - O).max() / np.abs(O).max()))
    verdict(6, "assembled matrix matches dense brute-force quadrature", worst <= 1e-12,
            f"max relative entry error {worst:.2e}")


def test_criterion_7_coercivity():
    rng = np.random.default_rng(42)
    worst = min(min_coercivity_ratio(N, variant, rng)
                for N in (8, 32) for variant in DeltaVariant)
    verdict(7, "discrete coercivity v'Av >= 0.5 ||v||_SD^2", worst >= 0.5,
            f"min ratio {worst:.3f} over 400 random vectors")


def test_criterion_8_layer_integral_oracles():
    worst = max(max(layer_integral_errors(N, eps)) for eps in (1e-2, 1e-4) for N in (8, 16))
    verdict(8, "closed-form layer integrals match composite quadrature", worst <= 1e-12,
            f"max relative error {worst:.2e}")


def test_criterion_9_interpolation_regressions():
    s_g, s_l = interpolation_spreads((8, 16, 32, 64, 128))
    verdict(9, "interpolation error tracks N^-1 ln N globally and N^-1.5 locally",
            s_g <= 3.0 and s_l <= 3.0, f"spreads {s_g:.2f}, {s_l:.2f}")


def test_criterion_10_solver_contract():
    ok = True
    details = []
    for N in (8, 16, 32):
        problem, mesh = build_case("paper-benchmark", N, EPS_REF)
        delta = DeltaField(DeltaVariant.STANDARD, 0.5)
        system = assemble_system(mesh, problem, delta)
        u_it, stats = solve(system)
        u_lu, _ = solve(system, SolverConfig(method=SolveMethod.DIRECT_LU))
        gap = float(np.abs(u_it - u_lu).max())
        ok = ok and stats.converged and stats.residual <= 1e-10 and gap <= 1e-8
        details.append(f"N={N}: gap {gap:.1e}, residual {stats.residual:.1e}")
    verdict(10, "GMRES agrees with direct LU and meets the residual bound", ok,
            "; ".join(details))
