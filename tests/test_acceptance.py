"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria (5, 6) ask the pinned rate fit to resolve rates that the curves
hold for only two or three steps; they are implemented literally and left
red, each building its failure message from measured values.  Criterion 7
checks the corrected GDM small-eps law on the small-E range it claims.  See
docs/DECISIONS.md for the analyses.
"""


import numpy as np
import pytest

from torus_echo.analysis import (
    MIN_WINDOW_POINTS,
    dc_rate_prediction,
    fit_decay_rate,
    gdm_rate_prediction,
    sweep_echo,
    sweep_purity,
)
from torus_echo.cli import parse_config, run
from torus_echo.decoherence import (
    apply_decoherence,
    build_kernel,
    chord_multiplier,
    depolarizing_kernel,
    gaussian_kernel,
    lorentz_kernel,
    purity_curve,
)
from torus_echo.dynamics import (
    MapParams,
    apply_propagator,
    build_propagator,
    lyapunov_closed_form,
)
from torus_echo.hilbert import (
    coherent_state,
    make_space,
    purity,
    rho_to_chord,
)
from torus_echo.selftest import (apply_decoherence_direct, lyapunov_numeric, propagator_matrix,
                                 random_density, translate)

from conftest import loglog_slope, random_state

LAMBDA_22 = lyapunov_closed_form(2, 2)   # ln(3 + 2 sqrt 2)
LAMBDA_44 = lyapunov_closed_form(4, 4)   # ln(9 + 4 sqrt 5)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. Oracle equivalence at N in {4, 8, 16}
# --------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence(rng):
    worst_channel = 0.0
    worst_prop = 0.0
    for N in (4, 8, 16):
        space = make_space(N)
        rho = random_density(N, rng)
        for kernel in (gaussian_kernel(space, 0.5),
                       depolarizing_kernel(space, 0.3),
                       lorentz_kernel(space, 0.5, image_cutoff=30)):
            fast = apply_decoherence(rho, chord_multiplier(kernel))
            direct = apply_decoherence_direct(rho, kernel)
            worst_channel = max(worst_channel, float(np.max(np.abs(fast - direct))))
        prop = build_propagator(space, MapParams(2, 2, 0.07))
        U = propagator_matrix(prop)
        psi = random_state(N, rng)
        worst_prop = max(worst_prop, float(np.max(np.abs(apply_propagator(psi, prop) - U @ psi))))
    ok = worst_channel < 1e-10 and worst_prop < 1e-10
    assert report(1, ok, f"chord-vs-Kraus max {worst_channel:.2e}, "
                         f"propagator-vs-matrix max {worst_prop:.2e} (tol 1e-10)")


# --------------------------------------------------------------------------
# 2. Invariant suite at N in {8, 64, 256}
# --------------------------------------------------------------------------

def _translate_adjoint(state, q, p):
    N = state.shape[0]
    q, p = int(q) % N, int(p) % N
    out = state * np.exp(1j * np.pi * q * p / N)
    if p:
        out = out * np.exp(-2j * np.pi * p * np.arange(N) / N)
    return np.roll(out, -q)


def test_criterion_02_invariant_suite(rng):
    failures = []
    for N in (8, 64, 256):
        space = make_space(N)
        prop = build_propagator(space, MapParams(2, 2, 0.01))
        psi = random_state(N, rng)
        if abs(np.linalg.norm(apply_propagator(psi, prop)) - 1.0) > 1e-12:
            failures.append(f"unitarity N={N}")
        rho = random_density(N, rng)
        for tag in ("gdm", "dc", "ldm"):
            mult = chord_multiplier(build_kernel(space, tag, 0.3, image_cutoff=30))
            out = apply_decoherence(rho, mult)
            if abs(np.trace(out) - 1.0) > 1e-12:
                failures.append(f"trace {tag} N={N}")
            eye = np.eye(N, dtype=complex) / N
            if np.max(np.abs(apply_decoherence(eye, mult) - eye)) > 1e-12:
                failures.append(f"unitality {tag} N={N}")
        curve = purity_curve(coherent_state(space, 0.3, 0.6), prop,
                             gaussian_kernel(space, 0.3), 10)
        if np.any(np.diff(curve.values) > 1e-10):
            failures.append(f"purity monotonicity N={N}")
        chi = rho_to_chord(rho)
        if abs(purity(rho) - np.sum(np.abs(chi) ** 2) / N) > 1e-10:
            failures.append(f"parseval N={N}")
        # translation commutation phase: exhaustive at N=8, sampled above
        if N == 8:
            quads = [(q, p, Q, P) for q in range(N) for p in range(N)
                     for Q in range(N) for P in range(N)]
        else:
            quads = [tuple(rng.integers(0, N, size=4)) for _ in range(60)]
        probe = random_state(N, rng)
        for q, p, Q, P in quads:
            # T_qp T_QP T_qp^dag T_QP^dag = exp(2 pi i (pQ - qP)/N) I on states
            out = _translate_adjoint(_translate_adjoint(probe, Q, P), q, p)
            out = translate(translate(out, Q, P), q, p)
            phase = np.exp(2j * np.pi * (p * Q - q * P) / N)
            if np.max(np.abs(out - phase * probe)) > 1e-10:
                failures.append(f"commutation N={N} ({q},{p},{Q},{P})")
                break
    ok = not failures
    assert report(2, ok, "unitarity, trace, unitality, monotone purity, Parseval, "
                         "commutation phase at N in {8,64,256}"
                         + ("" if ok else f" — failed: {failures[:4]}"))


# --------------------------------------------------------------------------
# 3. Lyapunov values
# --------------------------------------------------------------------------

def test_criterion_03_lyapunov_values():
    ok = True
    ok &= abs(LAMBDA_22 - 1.76275) < 1e-5
    ok &= abs(LAMBDA_44 - 2.88727) < 1e-5
    num22 = lyapunov_numeric(MapParams(2, 2, 0.0002), n_iter=100_000, seed=3)
    num44 = lyapunov_numeric(MapParams(4, 4, 0.0), n_iter=100_000, seed=4)
    ok &= abs(num22 - LAMBDA_22) < 1e-2
    ok &= abs(num44 - LAMBDA_44) < 1e-2
    assert report(3, ok, f"closed form ({LAMBDA_22:.5f}, {LAMBDA_44:.5f}) vs paper "
                         f"(1.76275, 2.88727); numeric k=2e-4: {num22:.5f}, k=0: {num44:.5f}")


# --------------------------------------------------------------------------
# 4. FGR quadratic echo regime
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_04_fgr_quadratic_regime():
    space = make_space(2**12)
    params = MapParams(2, 2, 0.0002)
    controls = list(np.geomspace(0.05, 0.5, 8))
    rows = sweep_echo(space, params, controls, t_max=400, n_states=64, seed=11,
                      transient_skip=2)
    fitted = [(r.control, r.fit.gamma) for r in rows if r.fit]
    slope = loglog_slope([c for c, _ in fitted], [g for _, g in fitted])
    ok = len(fitted) == 8 and abs(slope - 2.0) <= 0.3
    assert report(4, ok, f"log-log slope of Gamma_LE vs Sigma/hbar = {slope:.3f} "
                         f"(want 2.0 +/- 0.3, {len(fitted)}/8 rows fitted)")


# --------------------------------------------------------------------------
# 5. Echo overshoot / oscillation  [expected red: docs/DECISIONS.md]
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_echo_overshoot_oscillation():
    space = make_space(2**14)
    params = MapParams(4, 4, 0.0002)
    controls = list(np.geomspace(1.0, 10.0, 12))
    rows = sweep_echo(space, params, controls, t_max=16, n_states=64, seed=11,
                      transient_skip=0)
    peak = max((r for r in rows if r.fit), key=lambda r: r.fit.gamma)
    last = rows[-1]
    last_gamma = last.fit.gamma if last.fit else float("nan")
    last_ok = last.fit is not None and abs(last_gamma - LAMBDA_44) <= 0.25 * LAMBDA_44

    # measured diagnosis: every window starts at t=0, where the curves are flat
    flat = max(-np.log(r.curve[1]) for r in rows)
    peak_steps = np.diff(-np.log(peak.curve[:7]))
    last_steps = np.diff(-np.log(last.curve))[:6]
    last_from_2 = fit_decay_rate(last.curve, 1.0 / space.N, transient_skip=2)
    for control, steps in ((peak.control, peak_steps), (last.control, last_steps)):
        print(f"    one-step decay rates at Sigma/hbar={control:.3f}: "
              + " ".join(f"{s:.2f}" for s in steps)
              + f"  (max {steps.max():.2f} = {steps.max()/LAMBDA_44:.2f} lambda)")
    windows = [r.fit.n_points for r in rows if r.fit]

    overshoot_ok = peak.fit.gamma >= 1.2 * LAMBDA_44
    ok = overshoot_ok and last_ok
    assert report(5, ok,
                  f"max fitted Gamma {peak.fit.gamma:.3f} (Sigma/hbar={peak.control:.3f}, "
                  f"window {peak.fit.window}) vs 1.2*lambda={1.2*LAMBDA_44:.3f}; "
                  f"Gamma at Sigma/hbar=10: {last_gamma:.3f} "
                  f"(window {last.fit.window if last.fit else None}) "
                  f"vs lambda +/- 25% [{0.75*LAMBDA_44:.2f}, {1.25*LAMBDA_44:.2f}]. "
                  f"Every window starts at t=0 and holds {min(windows)}-{max(windows)} "
                  f"samples, and -ln M(1) <= {flat:.3f} at every Sigma/hbar, so each fit "
                  "averages two flat samples in. Overshoot: the one-step rate at "
                  f"Sigma/hbar={peak.control:.3f} reaches {peak_steps.max():.2f} = "
                  f"{peak_steps.max()/LAMBDA_44:.2f} lambda but stays above 1.2 lambda "
                  f"for only {int(np.sum(peak_steps >= 1.2 * LAMBDA_44))} steps. "
                  "Sigma/hbar=10: the flat first two samples are the cause; the same "
                  f"fit from t=2 gives {last_from_2.gamma:.3f} over {last_from_2.window}")


# --------------------------------------------------------------------------
# 6. GDM Lyapunov plateau decade  [expected red: docs/DECISIONS.md]
# --------------------------------------------------------------------------

def _longest_run(controls, flags):
    """(span, lo, hi) of the longest contiguous run of set flags, span being
    hi/lo of its end controls; (0, nan, nan) when no flag is set."""
    best = (0.0, float("nan"), float("nan"))
    start = None
    for i, flag in enumerate(list(flags) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            lo, hi = controls[start], controls[i - 1]
            if hi / lo > best[0]:
                best = (hi / lo, lo, hi)
            start = None
    return best


@pytest.mark.slow
def test_criterion_06_gdm_lyapunov_plateau():
    space = make_space(800)
    params = MapParams(2, 2, 0.01)
    eps_grid = list(np.geomspace(0.005, 0.8, 23))
    rows = sweep_purity(space, params, "gdm", eps_grid, t_max=12, seed=7,
                        transient_skip=0, floor_factor=1.5)
    band = (0.9 * LAMBDA_22, 1.1 * LAMBDA_22)
    best_span, lo, hi = _longest_run(
        eps_grid, [r.fit is not None and band[0] <= r.fit.gamma <= band[1] for r in rows])

    # measured diagnosis: per-step rates r_t = ln P(t-1) - ln P(t) of the
    # first three steps, which are the ones every fit window starts with
    print("    per-step purity rates / lambda (t=1,2,3) and fit across eps:")
    steps = []
    for eps, row in zip(eps_grid, rows):
        r = np.diff(-np.log(row.curve[:4])) / LAMBDA_22
        steps.append(r)
        fit = (f"Gamma/lambda={row.fit.gamma/LAMBDA_22:.3f} over {row.fit.window}"
               if row.fit else "no fit")
        print(f"      eps={eps:<7.4f} r1={r[0]:.2f} r2={r[1]:.2f} r3={r[2]:.2f}  {fit}")
    r1, r2, r3 = np.array(steps).T
    r3_span, r3_lo, r3_hi = _longest_run(eps_grid, (r3 >= 0.9) & (r3 <= 1.1))
    windows = [r.fit.n_points for r in rows if r.fit]
    unfit = [r.control for r in rows if r.fit is None]

    ok = best_span >= 10.0
    assert report(6, ok,
                  f"longest contiguous in-band run spans eps in [{lo:.3g}, {hi:.3g}] "
                  f"(x{best_span:.1f}; a decade needs x10). Every window starts at t=0 "
                  f"and holds {min(windows)}-{max(windows)} samples; {len(unfit)} rows "
                  f"from eps={min(unfit, default=float('nan')):.3g} up have fewer than "
                  f"{MIN_WINDOW_POINTS} and no fit. The third step's rate r3 is within "
                  f"the band for eps in [{r3_lo:.3g}, {r3_hi:.3g}] (x{r3_span:.1f}), but "
                  f"the first two steps, r1/lambda = {r1.min():.2f}-{r1.max():.2f} and "
                  f"r2/lambda = {r2.min():.2f}-{r2.max():.2f}, are averaged into every fit")


# --------------------------------------------------------------------------
# 7. GDM small-eps analytic law on the small-E grid E <= 0.1; the s >= 0.5
#    rows are printed, not asserted (see docs/DECISIONS.md)
# --------------------------------------------------------------------------

def _eq11(s):
    """The source paper's Eq. (11) at scaled width s = eps*N/(2*pi)."""
    E = np.exp(-1.0 / (2.0 * s * s))
    return 4.0 * (E + 4.0 * E * E) / (1.0 + 4.0 * E) ** 2


@pytest.mark.slow
def test_criterion_07_gdm_small_eps_law():
    space = make_space(800)
    params = MapParams(2, 2, 0.01)

    def sweep(scaled):
        return sweep_purity(space, params, "gdm", list(scaled * 2.0 * np.pi / 800),
                            t_max=40, seed=7, transient_skip=0)

    def print_rows(scaled, rows):
        for s, r in zip(scaled, rows):
            g = r.fit.gamma if r.fit else float("nan")
            print(f"      {s:<10.4f} {g:<9.4f} {r.prediction:<9.4f} {_eq11(s):.4f}")

    scaled = np.geomspace(0.30, 0.45, 6)
    rows = sweep(scaled)
    rel_errs = [abs(r.fit.gamma - r.prediction) / r.prediction if r.fit else float("inf")
                for r in rows]
    eq11_errs = [abs(r.fit.gamma - _eq11(s)) / _eq11(s) if r.fit else float("inf")
                 for s, r in zip(scaled, rows)]
    print("    eps*N/2pi   fitted    law       Eq.(11)")
    print_rows(scaled, rows)
    # above s ~ 0.7 the kernel alone would remove purity faster than lambda;
    # the fits sit near the criterion-6 plateau, where no kernel law applies
    old_scaled = np.array([0.5, 0.75, 1.0, 1.25, 1.5, 2.0])
    print("    not asserted (s >= 0.5, E >= 0.135):")
    print_rows(old_scaled, sweep(old_scaled))

    ok = all(rel < 0.15 for rel in rel_errs)
    E_max = np.exp(-1.0 / (2.0 * scaled[-1] ** 2))
    assert report(7, ok,
                  f"max |Gamma - law|/law = {max(rel_errs):.3f} over eps*N/2pi in "
                  f"[{scaled[0]:.2f}, {scaled[-1]:.2f}] (E <= {E_max:.3f}; want < 0.15); "
                  f"the paper's Eq. (11) is off by {min(eq11_errs):.2f}-{max(eq11_errs):.2f}")


# --------------------------------------------------------------------------
# 8. DC linear law, no plateau
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_dc_linear_law():
    space = make_space(800)
    params = MapParams(2, 2, 0.01)
    law_eps = [0.005, 0.0079, 0.0126, 0.02, 0.0317, 0.05]
    rows = sweep_purity(space, params, "dc", law_eps, t_max=160, seed=7,
                        transient_skip=2)
    rels = [abs(r.fit.gamma - 2 * r.control) / (2 * r.control) for r in rows if r.fit]
    law_ok = len(rels) == len(law_eps) and max(rels) < 0.10

    mono_eps = [0.08, 0.13, 0.21, 0.34, 0.45, 0.55, 0.7, 0.9]
    mono_rows = sweep_purity(space, params, "dc", mono_eps, t_max=30, seed=7,
                             transient_skip=0)
    gammas = [r.fit.gamma for r in rows] + [r.fit.gamma for r in mono_rows if r.fit]
    controls = [r.control for r in rows] + [r.control for r in mono_rows if r.fit]
    increasing = all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))
    # rows too fast to resolve (saturation within 3 steps) may only occur at
    # the top of the eps grid, never between fitted rows
    unfit = [r.control for r in mono_rows if r.fit is None]
    suffix_only = (not unfit) or min(unfit) > max(controls)
    ok = law_ok and increasing and suffix_only
    assert report(8, ok,
                  f"max |Gamma-2eps|/2eps = {max(rels):.3f} over eps in [0.005, 0.05] "
                  f"(want < 0.10); Gamma strictly increasing over {len(gammas)} fitted "
                  f"rows up to eps={max(controls):.2f}, max Gamma={max(gammas):.2f} "
                  f"(unfittable above: decay saturates within 3 steps at {unfit})")


# --------------------------------------------------------------------------
# 9. LDM quadratic law, unbounded growth
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_09_ldm_quadratic_law():
    space = make_space(800)
    params = MapParams(2, 2, 0.01)
    decade = list(np.geomspace(6e-5, 6e-4, 6))
    rows = sweep_purity(space, params, "ldm", decade, t_max=150, seed=7,
                        transient_skip=2)
    fitted = [(r.control, r.fit.gamma) for r in rows if r.fit]
    slope = loglog_slope([c for c, _ in fitted], [g for _, g in fitted])
    slope_ok = len(fitted) == len(decade) and abs(slope - 2.0) <= 0.3

    crossing_eps = [0.0011, 0.0012, 0.00128, 0.00135]
    crossing = sweep_purity(space, params, "ldm", crossing_eps, t_max=10, seed=7,
                            transient_skip=0)
    cross_gammas = [r.fit.gamma for r in crossing if r.fit]
    crosses = bool(cross_gammas) and max(cross_gammas) > LAMBDA_22

    all_fitted = fitted + [(r.control, r.fit.gamma) for r in crossing if r.fit]
    band = (0.9 * LAMBDA_22, 1.1 * LAMBDA_22)
    no_plateau = True
    for i, (c_lo, _) in enumerate(all_fitted):
        decade_rows = [g for c, g in all_fitted if c_lo <= c <= 10 * c_lo]
        if len(decade_rows) >= 4 and all(band[0] <= g <= band[1] for g in decade_rows):
            no_plateau = False
    ok = slope_ok and crosses and no_plateau
    assert report(9, ok,
                  f"small-eps log-log slope = {slope:.3f} (want 2.0 +/- 0.3) over "
                  f"eps in [6e-5, 6e-4]; max fitted Gamma = {max(cross_gammas):.3f} "
                  f"{'>' if crosses else '<='} lambda = {LAMBDA_22:.3f}; "
                  f"plateau decade absent: {no_plateau}")


# --------------------------------------------------------------------------
# 10. Mixture: FGR slope + Lyapunov window
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_mixture_behavior():
    space = make_space(800)
    params = MapParams(2, 2, 0.01)
    decade = list(np.geomspace(1e-4, 1e-3, 5))
    rows = sweep_purity(space, params, "mixture", decade, t_max=150, seed=7,
                        transient_skip=2, mixture_weight=0.5)
    fitted = [(r.control, r.fit.gamma) for r in rows if r.fit]
    slope = loglog_slope([c for c, _ in fitted], [g for _, g in fitted])
    slope_ok = len(fitted) == len(decade) and abs(slope - 2.0) <= 0.4

    window_eps = [0.0036, 0.0045, 0.005, 0.0056, 0.0065]
    window_rows = sweep_purity(space, params, "mixture", window_eps, t_max=10,
                               seed=7, transient_skip=0, mixture_weight=0.5)
    in_window = [r.fit.gamma for r in window_rows
                 if r.fit and abs(r.fit.gamma - LAMBDA_22) <= 0.15 * LAMBDA_22]
    ok = slope_ok and bool(in_window)
    assert report(10, ok,
                  f"small-eps slope = {slope:.3f} (want 2.0 +/- 0.4); "
                  f"{len(in_window)} row(s) within 15% of lambda "
                  f"({', '.join(f'{g:.3f}' for g in in_window)} vs {LAMBDA_22:.3f})")


# --------------------------------------------------------------------------
# 11. Determinism: byte-identical CSV bodies
# --------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    le_text = ("mode = le-sweep\nN = 256\nk = 0.001\n"
               "sigma_over_hbar = 0.4, 0.8\nt_max = 40\nn_states = 8\nseed = 5\n"
               "transient_skip = 1\n")
    pur_text = ("mode = purity-sweep\nN = 64\nk = 0.01\nmodel = gdm\n"
                "epsilon = 0.2, 0.35\nt_max = 10\nseed = 5\ntransient_skip = 0\n")
    bodies = {}
    for tag, text in (("le", le_text), ("pur", pur_text)):
        for attempt in ("a", "b"):
            out = tmp_path / f"{tag}_{attempt}"
            code = run(parse_config(text + f"out_dir = {out}\n"))
            assert code in (0, 2)
            bodies[(tag, attempt)] = (out / "sweep.csv").read_bytes()
    ok = (bodies[("le", "a")] == bodies[("le", "b")]
          and bodies[("pur", "a")] == bodies[("pur", "b")])
    assert report(11, ok, "repeated le-sweep and purity-sweep runs produce "
                          "byte-identical sweep.csv bodies")
