import ast
import threading
from pathlib import Path

import numpy as np
import pytest

from torus_echo import dynamics
from torus_echo.dynamics import (
    MapParams,
    apply_propagator,
    apply_to_density,
    build_propagator,
    lyapunov_closed_form,
    run_parts,
)
from torus_echo.hilbert import coherent_state, make_space, purity
from torus_echo.selftest import classical_step, lyapunov_numeric, propagator_matrix, random_density

from conftest import random_state


class TestClassicalStep:
    def test_origin_fixed_point(self):
        assert classical_step((0.0, 0.0), MapParams(2, 2, 0.0)) == (0.0, 0.0)

    def test_linear_map_by_hand(self):
        q, p = classical_step((0.1, 0.1), MapParams(2, 2, 0.0))
        assert p == pytest.approx(0.3, abs=1e-15)
        assert q == pytest.approx(0.7, abs=1e-15)

    def test_sheared_step_oracle(self):
        # independent full-precision evaluation, frozen:
        # p' = 0.5 + 0.02*pi*(cos(pi/2) - cos(pi)),  q' = 0.25 + 2 p' mod 1
        q, p = classical_step((0.25, 0.0), MapParams(2, 2, 0.01))
        assert p == pytest.approx(0.5628318530717958, abs=1e-15)
        assert q == pytest.approx(0.3756637061435917, abs=1e-15)

    def test_wraps_mod_one(self):
        q, p = classical_step((0.9, 0.9), MapParams(4, 4, 0.0))
        assert 0.0 <= q < 1.0 and 0.0 <= p < 1.0


class TestMapParams:
    def test_odd_integers_rejected(self):
        with pytest.raises(ValueError):
            MapParams(3, 2, 0.0)
        with pytest.raises(ValueError):
            MapParams(2, 1, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MapParams(-2, 2, 0.0)
        with pytest.raises(ValueError):
            MapParams(2, 2, -0.1)

    @pytest.mark.parametrize("a, b, k, field", [
        (2.0, 2, 0.01, "map integer a"),
        (2, 2.0, 0.01, "map integer b"),
        (np.float64(2), 2, 0.01, "map integer a"),
        (2, np.float64(2), 0.01, "map integer b"),
        (True, 2, 0.01, "map integer a"),
        (2, 2, float("nan"), "shear amplitude k"),
        (2, 2, float("inf"), "shear amplitude k"),
    ], ids=["a float", "b float", "a np.float64", "b np.float64", "a bool", "k nan", "k inf"])
    def test_non_integer_map_or_non_finite_shear_rejected(self, a, b, k, field):
        with pytest.raises(ValueError, match=field):
            MapParams(a, b, k)

    def test_numpy_integers_accepted(self):
        params = MapParams(np.int64(2), np.int64(4), np.float64(0.01))
        assert (params.a, params.b, params.k) == (2, 4, 0.01)


class TestLyapunov:
    def test_paper_value_ab2(self):
        assert lyapunov_closed_form(2, 2) == pytest.approx(1.76275, abs=1e-5)
        assert lyapunov_closed_form(2, 2) == pytest.approx(np.log(3 + 2 * np.sqrt(2)), abs=1e-14)

    def test_paper_value_ab4(self):
        assert lyapunov_closed_form(4, 4) == pytest.approx(2.88727, abs=1e-5)
        assert lyapunov_closed_form(4, 4) == pytest.approx(np.log(9 + 4 * np.sqrt(5)), abs=1e-14)

    def test_eigenvalue_oracle_ab1(self):
        # leading eigenvalue of [[1,1],[1,2]] is (3+sqrt(5))/2
        assert lyapunov_closed_form(1, 1) == pytest.approx(np.log((3 + np.sqrt(5)) / 2), abs=1e-14)
        assert lyapunov_closed_form(1, 1) == pytest.approx(0.96242, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            lyapunov_closed_form(0, 4)

    def test_numeric_matches_linear_map(self):
        got = lyapunov_numeric(MapParams(2, 2, 0.0), n_iter=100_000, seed=0)
        assert got == pytest.approx(lyapunov_closed_form(2, 2), abs=1e-3)

    def test_numeric_ab4(self):
        got = lyapunov_numeric(MapParams(4, 4, 0.0), n_iter=100_000, seed=1)
        assert got == pytest.approx(2.88727, abs=1e-3)

    def test_numeric_small_shear(self):
        got = lyapunov_numeric(MapParams(2, 2, 0.0002), n_iter=100_000, seed=2)
        assert got == pytest.approx(1.76275, abs=1e-2)

    def test_numeric_deterministic(self):
        a = lyapunov_numeric(MapParams(2, 2, 0.01), n_iter=20_000, seed=5)
        b = lyapunov_numeric(MapParams(2, 2, 0.01), n_iter=20_000, seed=5)
        assert a == b

    def test_numeric_rejects_short_runs(self):
        with pytest.raises(ValueError):
            lyapunov_numeric(MapParams(2, 2, 0.0), n_iter=100, seed=0)


class TestPropagator:
    def test_phases_unit_modulus(self):
        prop = build_propagator(make_space(256), MapParams(2, 2, 0.01))
        assert np.max(np.abs(np.abs(prop.kick_phases) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(prop.kinetic_phases) - 1.0)) < 1e-12

    def test_norm_preserved(self, rng):
        prop = build_propagator(make_space(128), MapParams(4, 2, 0.03))
        for _ in range(5):
            psi = random_state(128, rng)
            assert np.linalg.norm(apply_propagator(psi, prop)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_oracle(self, rng):
        # explicit 8x8 unitary built entrywise from the DFT matrix
        N = 8
        prop = build_propagator(make_space(N), MapParams(2, 4, 0.11))
        U = propagator_matrix(prop)
        assert np.max(np.abs(U @ U.conj().T - np.eye(N))) < 1e-12
        psi = random_state(N, rng)
        assert np.max(np.abs(apply_propagator(psi, prop) - U @ psi)) < 1e-10

    @pytest.mark.parametrize("N", [7, 800, 4096, 2**14])
    def test_kinetic_phases_even_bitwise(self, N):
        K = build_propagator(make_space(N), MapParams(2, 4, 0.01)).kinetic_phases
        assert np.array_equal(K, K[(N - np.arange(N)) % N])

    @pytest.mark.parametrize("a, b", [(2, 2), (2, 4), (6, 6)])
    def test_phases_match_exactly_reduced_quadratics(self, a, b):
        # exp(-+i*pi*c*j^2/N) from (c*j^2) mod 2N in integers and pi in long
        # double; the unreduced float argument misses this by ~1e-11 at N=2^14
        N = 2**14
        j = np.arange(N, dtype=np.int64)
        pi = np.arccos(np.longdouble(-1.0))

        def reduced(c, sign):
            angle = sign * pi * ((c * j * j) % (2 * N)) / N
            return (np.cos(angle) + 1j * np.sin(angle)).astype(np.complex128)

        prop = build_propagator(make_space(N), MapParams(a, b, 0.0))
        assert np.max(np.abs(prop.kinetic_phases - reduced(b, -1))) < 1e-15
        assert np.max(np.abs(prop.kick_phases - reduced(a, +1))) < 1e-15

    def test_dimension_mismatch(self, rng):
        prop = build_propagator(make_space(16), MapParams(2, 2, 0.0))
        with pytest.raises(ValueError):
            apply_propagator(random_state(8, rng), prop)


class TestClassicalCorrespondence:
    """Coherent-state transport follows the classical map.

    One step of a hyperbolic map squeezes a coherent state by the stretch
    factor mu, so the overlap with a fresh coherent state at the classical
    image is bounded by 2/(mu + 1/mu); for a=b=2 that is exactly 1/3.  The
    peak of the evolved state must still sit on the classical trajectory.
    """

    def test_single_step_overlap_at_squeeze_bound(self):
        N = 2**10
        space = make_space(N)
        params = MapParams(2, 2, 0.0)
        prop = build_propagator(space, params)
        mu = np.exp(lyapunov_closed_form(2, 2))
        bound = 2.0 / (mu + 1.0 / mu)
        point = (0.3, 0.2)
        state = coherent_state(space, *point)
        for _ in range(3):
            point = classical_step(point, params)
            state = apply_propagator(state, prop)
            target = coherent_state(space, *point)
            overlap = abs(np.vdot(target, state)) ** 2
            assert overlap > 0.9 * bound   # tracks the classical point
            assert overlap > 100.0 / N     # far above the random-state floor
            state = target                 # restart from a fresh coherent state

    def test_position_peak_tracks_classical_point(self):
        N = 2**10
        space = make_space(N)
        params = MapParams(2, 2, 0.0)
        prop = build_propagator(space, params)
        point = (0.3, 0.2)
        state = coherent_state(space, *point)
        for _ in range(3):
            point = classical_step(point, params)
            state = apply_propagator(state, prop)
            peak = np.argmax(np.abs(state)) / N
            dist = abs(peak - point[0])
            assert min(dist, 1.0 - dist) < 0.02


class TestDensityEvolution:
    def test_trace_preserved(self, rng):
        prop = build_propagator(make_space(32), MapParams(2, 2, 0.02))
        rho = random_density(32, rng)
        assert np.trace(apply_to_density(rho, prop)) == pytest.approx(1.0, abs=1e-12)

    def test_purity_preserved(self, rng):
        prop = build_propagator(make_space(32), MapParams(2, 2, 0.02))
        rho = random_density(32, rng)
        assert purity(apply_to_density(rho, prop)) == pytest.approx(purity(rho), abs=1e-10)

    def test_matches_pure_state_path(self, rng):
        N = 64
        space = make_space(N)
        prop = build_propagator(space, MapParams(2, 2, 0.01))
        psi = random_state(N, rng)
        via_density = apply_to_density(np.outer(psi, psi.conj()), prop)
        upsi = apply_propagator(psi, prop)
        assert np.max(np.abs(via_density - np.outer(upsi, upsi.conj()))) < 1e-10

    def test_dimension_mismatch(self, rng):
        prop = build_propagator(make_space(16), MapParams(2, 2, 0.0))
        with pytest.raises(ValueError):
            apply_to_density(random_density(8, rng), prop)


def test_determinism_bitwise(rng):
    space = make_space(128)
    params = MapParams(2, 2, 0.004)
    prop1 = build_propagator(space, params)
    prop2 = build_propagator(space, params)
    psi = random_state(128, rng)
    out1 = apply_propagator(psi, prop1)
    out2 = apply_propagator(psi, prop2)
    assert np.array_equal(out1, out2)


class TestThreadRule:
    """thread_count and run_parts, the one thread rule of the echo ensemble's
    chunks of states, the purity step's ranges of rows and the Lorentz
    kernel's ranges of nodes and of product rows."""

    @pytest.mark.parametrize("cpus, parts, workers, count", [
        (1, 9, None, 1), (2, 9, None, 2), (3, 9, None, 2), (64, 9, None, 2), (64, 1, None, 1),
        (1, 9, 5, 5), (64, 9, 12, 9), (64, 3, 3, 3), (1, 1, 4, 1)])
    def test_thread_count(self, monkeypatch, cpus, parts, workers, count):
        # the default is one thread per usable CPU, at most MAX_WORKERS; a
        # named count is kept; either is capped at parts
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: cpus)
        assert dynamics.thread_count(parts, workers) == count

    @pytest.mark.parametrize("workers", [0, -1])
    def test_thread_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            dynamics.thread_count(9, workers)

    @pytest.mark.parametrize("n, workers", [(1, 1), (2, 2), (5, 2), (7, 3), (16, 5), (801, 2),
                                            (9, 9)])
    def test_ranges_split_range_n(self, n, workers):
        # every index of range(n) in exactly one range, the ranges ascending
        # by part, each [n*i//w, n*(i+1)//w), part 0 on the calling thread;
        # the parts' results come back in part order
        def body(i, lo, hi, sync):
            with lock:
                seen[i] = (lo, hi, threading.current_thread())
            return i

        seen, lock = {}, threading.Lock()
        assert run_parts(body, n, workers) == list(range(workers))
        assert sorted(seen) == list(range(workers))
        ranges = [seen[i][:2] for i in range(workers)]
        assert ranges == [(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
        assert [j for lo, hi in ranges for j in range(lo, hi)] == list(range(n))
        assert all(lo < hi for lo, hi in ranges)
        assert seen[0][2] is threading.current_thread()
        assert len({thread for _, _, thread in seen.values()}) == workers

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", range(5))
    def test_costs_split_as_prefix_search(self, workers, seed):
        # per-item costs: part i takes the items whose cost prefix starts in
        # [total*i//w, total*(i+1)//w), the searchsorted split that the
        # Lorentz nodes (band rows) and product rows (triangle area) used
        rng = np.random.default_rng(seed)
        costs = rng.integers(1, 60, size=rng.integers(workers, 40))
        first, total = np.cumsum(costs) - costs, int(costs.sum())
        expected = [tuple(np.searchsorted(first, (total * i // workers,
                                                  total * (i + 1) // workers)).tolist())
                    for i in range(workers)]
        assert run_parts(lambda i, lo, hi, sync: (lo, hi), costs, workers) == expected


def test_only_dynamics_starts_threads():
    # every runtime thread comes from run_parts: no other module of the
    # package constructs a threading.Thread or imports threading
    package = Path(dynamics.__file__).parent
    constructing, importing = [], []
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        calls = [node.func for node in nodes if isinstance(node, ast.Call)]
        if any(getattr(func, "attr", getattr(func, "id", None)) == "Thread" for func in calls):
            constructing.append(path.name)
        modules = [alias.name for node in nodes if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in nodes if isinstance(node, ast.ImportFrom)]
        if "threading" in modules:
            importing.append(path.name)
    assert constructing == ["dynamics.py"]
    assert importing == ["dynamics.py"]


def test_cli_names_no_private_name_of_the_step_modules():
    # each step's set-up and memory charge (echo.working_set,
    # decoherence.working_set) live in the module that allocates its buffers:
    # the CLI reaches echo and decoherence through their public names only
    tree = ast.parse((Path(dynamics.__file__).parent / "cli.py").read_text())
    steps = ("echo", "decoherence")
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] in steps
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) in steps and node.attr.startswith("_")]
    assert private == []


BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot", "vecdot", "linalg"}


def test_no_run_calls_blas():
    # no CSV cell depends on the BLAS build or its thread count: no runtime
    # module (the oracles in selftest may) names numpy's products or
    # np.linalg, uses @, or lets einsum dispatch to BLAS through optimize
    package = Path(dynamics.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "selftest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif (isinstance(node, ast.Attribute) and node.attr in BLAS_FUNCTIONS
                  and ast.unparse(node.value) in ("np", "numpy")):
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = {alias.name for alias in node.names} | {node.module.split(".")[-1]}
                found += [(path.name, node.lineno, name) for name in names & BLAS_FUNCTIONS]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
                  and any(keyword.arg == "optimize" for keyword in node.keywords)):
                found.append((path.name, node.lineno, "einsum optimize"))
    assert found == []


class TestRunParts:
    """The thread protocol of the echo ensemble's chunks and of the purity
    step's row ranges."""

    def test_part_zero_runs_on_the_calling_thread(self):
        def body(i, lo, hi, sync):
            seen[i] = threading.current_thread()

        seen = {}
        run_parts(body, 3, 3)
        assert seen[0] is threading.current_thread() and len(set(seen.values())) == 3

    def test_one_part_starts_no_thread(self, monkeypatch):
        def no_start(thread):
            raise AssertionError("a thread was started")

        ran = []
        monkeypatch.setattr(threading.Thread, "start", no_start)
        run_parts(lambda *part: ran.append(part[:3]), 4, 1)
        assert ran == [(0, 0, 4)]

    @pytest.mark.parametrize("failing, fault", [(0, RuntimeError), (1, RuntimeError),
                                                (2, RuntimeError), (0, KeyboardInterrupt)])
    def test_fault_stops_the_others_and_reaches_the_caller(self, failing, fault):
        # the other parts wait at the barrier until the fault aborts it; the
        # fault, not their BrokenBarrierError, is raised once every thread
        # has ended
        def body(i, lo, hi, sync):
            if i == failing:
                raise fault(f"part {i} failed")
            with pytest.raises(threading.BrokenBarrierError):
                sync.wait(10)
            ended.append(i)

        ended = []
        alive = threading.active_count()
        with pytest.raises(fault, match=f"part {failing} failed"):
            run_parts(body, 3, 3)
        assert sorted(ended) == sorted({0, 1, 2} - {failing})
        assert threading.active_count() == alive

    def test_thread_start_failure_ends_the_started_ones(self, monkeypatch):
        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        def body(i, lo, hi, sync):
            ran.append(i)
            sync.wait(10)

        started, ran, start = [], [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_parts(body, 3, 3)
        assert len(started) == 1 and not started[0].is_alive() and ran == [1]

    def test_broken_barrier_without_a_fault_is_raised(self):
        # a part whose wait times out breaks the barrier with no other fault:
        # run_parts raises that BrokenBarrierError, it returns no results
        def body(i, lo, hi, sync):
            if i == 1:
                sync.wait(0.01)

        with pytest.raises(threading.BrokenBarrierError):
            run_parts(body, 2, 2)
