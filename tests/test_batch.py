"""The batched ensemble march: ``run_many`` over configs that share a grid
equals ``run`` config by config (bit for bit when the members share model
and step parameters; otherwise to rtol 1e-7 on heights and on every
record column, the EL residual, which sits at roundoff, within its gate
wherever run's is), member by member, through warm starts that leave the
barrier domain (a warm failure with 0 iterations) and warm Newton
failures, both solved cold in the batch, and mixed grids and step
counts.  A member that fails cold (a Newton cap, a failed Newton
direction) ends the march: ``run_many`` raises the first failure in march
order as ``run`` raises it for that config, and never calls ``run``."""

import copy
import dataclasses
import itertools
import sys
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfilm.driver
import tfilm.step
from tfilm.driver import EnergyAuditError, InitialDataSpec, RunConfig, run, run_many
from tfilm.experiments import liftoff_configs
from tfilm.grid import Grid, integrate
from tfilm.models import (
    ModelParams,
    constant_mobility,
    energy,
    navier_slip_mobility,
    power_mobility,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from tfilm.step import (
    StepBatch,
    StepCheckError,
    StepNonconvergenceError,
    StepParams,
    StepState,
)

RTOL = 1e-7
STEP_ERRORS = (StepNonconvergenceError, StepCheckError, EnergyAuditError)


def smooth_height(g, coeffs, M):
    x = g.cell_centers()
    s = sum(c * np.cos((k + 1) * np.pi * x) / (k + 1) for k, c in enumerate(coeffs))
    return M * (1.0 + 0.5 * s / max(float(np.max(np.abs(s))), 1e-12))


def member(g, alpha=1.0, mobility=None, potential=None, sigma=0.05, h=1e-5, n_steps=6,
           record_every=1, coeffs=(0.3, -0.2, 0.1, 0.05), M=1.0, **step):
    model = ModelParams(alpha=alpha, mobility=mobility or power_mobility(2.0),
                        potential=potential or zero_potential(), sigma=sigma)
    return RunConfig(grid=g, model=model, step=StepParams(h=h, **{"tol_grad": 1e-8, **step}),
                     T=n_steps * h, record_every=record_every,
                     initial=InitialDataSpec("values", values=tuple(smooth_height(g, coeffs, M))))


def family(g, size, **kw):
    """size members cycling through alpha < 1, = 1, > 1, mobility exponents,
    both potential kinds and the step sizes."""
    combos = itertools.cycle(itertools.product(
        [0.5, 1.0, 2.0], [1.0, 3.0], [zero_potential(), quadratic_potential(0.8)],
        [1e-5, 2e-5]))
    return [member(g, alpha=a, mobility=power_mobility(n), potential=pot, h=h,
                   coeffs=(0.3, -0.2 + 0.05 * i, 0.1, 0.05), **kw)
            for i, (a, n, pot, h) in zip(range(size), combos)]


def assert_series_match(batched, serial):
    """Heights and every record column to rtol 1e-7 of their scale; the
    EL residual within its gate."""
    cfg = serial.config
    assert batched.config is cfg
    assert batched.snapshots.keys() == serial.snapshots.keys()
    for k, u in serial.snapshots.items():
        assert np.max(np.abs(batched.snapshots[k] - u)) <= RTOL * np.max(np.abs(u)), k
    energy_scale = float(np.max(np.abs(serial.column("E_total"))))
    for name in serial.diagnostics.dtype.names:
        got, want = batched.column(name), serial.column(name)
        if name == "el_residual":
            # within the gate wherever run is: for alpha < 1 run itself can
            # exceed it (ROADMAP item 2, finding B)
            bound = cfg.el_bound
            assert np.all((got[1:] <= bound) | (want[1:] > bound)), name
        elif name == "ede_slack":  # a difference of energies
            assert np.max(np.abs(got - want)) <= RTOL * energy_scale, name
        else:
            assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want)), name


def run_each(configs):
    """run of each config, and the number of steps whose Newton failed from
    the warm start (run solved those steps cold)."""
    real = tfilm.step._solve
    warm_failures = []

    def watched(prob, start):
        try:
            return real(prob, start)
        except StepNonconvergenceError:
            warm_failures.append(1)  # a cold failure would end the run
            raise

    with patch.object(tfilm.step, "_solve", watched):
        serial = [run(c) for c in configs]
    return serial, len(warm_failures)


def states_of_step_size(h):
    """A list that collects the StepStates of the members of step size h of
    every StepBatch built under the patch returned with it."""
    states = []
    real = StepBatch.__init__

    def init(batch, g, models, steps, energies):
        real(batch, g, models, steps, energies)
        states.extend(s for s, sp in zip(batch.states, steps) if sp.h == h)

    return states, patch.object(StepBatch, "__init__", init)


def batched_only(configs):
    """run_many(configs), checked to march them as StepBatches, never by run."""
    def refuse(cfg):
        raise AssertionError("run_many fell back to run")

    with patch.object(tfilm.driver, "run", refuse):
        return run_many(configs)


MOBILITIES = {
    "power": lambda c: power_mobility(1.0 + 2.0 * c),
    "navier_slip": lambda c: navier_slip_mobility(0.1 + c, 1.0),
    "constant_one": lambda c: constant_mobility(),
}
POTENTIALS = {
    "zero": lambda c: zero_potential(),
    "quadratic": lambda c: quadratic_potential(2.0 * c),
    "strong_singular": lambda c: strong_singular_potential(1e-3 * c),
}


@st.composite
def groups(draw):
    """A group of configs on one grid and of one run length, mixing
    rheology branches, mobility and potential kinds, step sizes and
    snapshot spacings."""
    g = Grid(1.0, draw(st.integers(8, 40)))
    size = draw(st.integers(1, 10))
    n_steps = draw(st.integers(1, 5))
    configs = []
    for _ in range(size):
        c = draw(st.floats(0.0, 1.0))
        configs.append(member(
            g,
            alpha=draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.3, 3.0)),
            mobility=MOBILITIES[draw(st.sampled_from(sorted(MOBILITIES)))](c),
            potential=POTENTIALS[draw(st.sampled_from(sorted(POTENTIALS)))](c),
            sigma=draw(st.floats(0.01, 0.2)),
            h=draw(st.sampled_from([1e-6, 1e-5, 1e-4])),
            n_steps=n_steps,
            record_every=draw(st.integers(1, 3)),
            coeffs=draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)),
            M=draw(st.floats(0.5, 2.0))))
    return configs


@settings(max_examples=25, deadline=None, derandomize=True)
@given(groups())
def test_run_many_equals_run_member_by_member(configs):
    serial = []
    for c in configs:
        try:
            serial.append(run(c))
        except STEP_ERRORS as exc:
            serial.append(exc)
    failures = [(type(x), str(x)) for x in serial if isinstance(x, Exception)]
    if failures:
        # the batch raises a failing member's error as run raises it for that config
        with pytest.raises(STEP_ERRORS) as info:
            batched_only(configs)
        assert (type(info.value), str(info.value)) in failures
        return
    # the batch marches them all, a member whose Newton fails from its warm
    # start solved cold in it as in run
    for batched, ref in zip(batched_only(configs), serial):
        assert_series_match(batched, ref)


def test_family_members_take_the_serial_newton_iterations():
    g = Grid(1.0, 48)
    configs = family(g, 12)
    for batched, ref in zip(batched_only(configs), [run(c) for c in configs]):
        assert_series_match(batched, ref)
        assert np.array_equal(batched.column("newton_iters"), ref.column("newton_iters"))


def replace_steps(cfg, n_steps):
    return RunConfig(grid=cfg.grid, model=cfg.model, step=cfg.step, T=n_steps * cfg.step.h,
                     record_every=2, initial=cfg.initial)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_a_uniform_liftoff_family_equals_run_bit_for_bit(alpha):
    # one model and one step for all members, so the batch holds their
    # parameters as scalars and does run's arithmetic
    h = 1e-5
    configs = liftoff_configs(np.geomspace(1e-1, 1e-3, 3), M=1.0, n=2.0, alpha=alpha,
                              grid=Grid(1.0, 64), step=StepParams(h=h, tol_grad=1e-8),
                              T=12 * h, record_every=3)
    for got, ref in zip(batched_only(configs), [run(c) for c in configs]):
        for name in ref.diagnostics.dtype.names:
            assert np.array_equal(got.column(name), ref.column(name)), name
        assert got.snapshots.keys() == ref.snapshots.keys()
        assert all(np.array_equal(got.snapshots[k], u) for k, u in ref.snapshots.items())


def test_configs_of_different_lengths_are_batched_apart():
    g = Grid(1.0, 32)
    configs = [replace_steps(c, n) for c, n in zip(family(g, 9), itertools.cycle([3, 5]))]
    batches = []
    real_init = tfilm.step.StepBatch.__init__

    def recorded(self, g, models, *args):
        batches.append(len(models))
        real_init(self, g, models, *args)

    with patch.object(tfilm.step.StepBatch, "__init__", recorded):
        out = batched_only(configs)
    # one lockstep batch per run length, in the order the lengths first appear
    assert batches == [5, 4]
    for got, cfg in zip(out, configs):
        assert got.config is cfg
        assert len(got.diagnostics) == cfg.n_steps + 1
        assert_series_match(got, run(cfg))


def test_a_pass_solves_the_iterating_members_and_leaves_the_other_rows_alone():
    g = Grid(1.0, 32)
    configs = [replace_steps(c, 5) for c in family(g, 5)]
    real_solve, real_gradient = tfilm.step._solve, tfilm.step._reduced_gradient
    real_dpbsv = tfilm.step.dpbsv
    names = ("q", "u", "e", "f", "mu", "d2g", "it", "level", "active")
    passes, checked = [], []  # the loop's state at the start of each pass of a step

    def gradient(dx, mu, w, q, r, p):  # evaluated once at the start of each pass
        loop = sys._getframe(1).f_locals  # the state of _solve's Newton loop
        g_scaled, dmu = real_gradient(dx, mu, w, q, r, p)
        passes.append({name: copy.deepcopy(loop[name]) for name in names}
                      | {"prob": loop["prob"], "rhs": -(loop["h"] * dx * g_scaled),
                         "solves": []})
        return g_scaled, dmu

    def counted(ab, b):
        # the members' bands as they stand at the call, and the solved band
        # and right-hand side split into their blocks
        n = g.N - 1
        now = passes[-1]
        now["solves"].append((now["prob"].ab.copy(), ab.reshape(3, -1, n).copy(),
                              b.reshape(-1, n).copy()))
        return real_dpbsv(ab, b)

    def solved_rows(before):
        """The member of each block of the pass's one solve: its band is
        that member's band and its right-hand side that member's."""
        if not before["solves"]:
            return []
        # one dpbsv call per pass
        ((bands, blocks, rhs),) = before["solves"]
        rows = []
        for block, b in zip(blocks.transpose(1, 0, 2), rhs):
            (i,) = [i for i in range(bands.shape[1]) if np.array_equal(bands[:, i], block)]
            assert np.array_equal(b, before["rhs"][i]), i
            rows.append(i)
        return rows

    def solved(prob, start):
        passes.clear()
        sol = real_solve(prob, start)
        # after the last pass no member iterates and none enters a level
        passes.append({"q": sol.q, "u": sol.u, "e": sol.energy, "f": sol.f, "mu": sol.mu,
                       "d2g": sol.d2g})
        for before, after in zip(passes, passes[1:]):
            B = len(before["q"])
            rows = solved_rows(before)
            # the blocks of the solve are the iterating members, in order, and
            # those members take one iteration
            assert rows == sorted(set(rows))
            assert set(rows) <= set(before["active"])
            stepped = [i for i in range(B) if "it" in after
                       and after["it"][i] == before["it"][i] + 1
                       and after["level"][i] == before["level"][i]]
            assert sorted(rows) == stepped
            for i in rows:
                assert not np.array_equal(after["q"][i], before["q"][i]), i
            # every other member rides along: its row is left as it was, except
            # for the functional of a member that entered a new eps level
            for i in sorted(set(range(B)) - set(rows)):
                for name in ("q", "u", "mu"):
                    assert np.array_equal(after[name][i], before[name][i]), (name, i)
                # G_sigma'' is the scalar 0.0 where it vanishes on every row
                a, b = (np.broadcast_to(x["d2g"], x["u"].shape)[i] for x in (after, before))
                assert np.array_equal(a, b), ("d2g", i)
                assert [x[i] for x in after["e"]] == [x[i] for x in before["e"]], ("e", i)
                if "level" not in after or after["level"][i] == before["level"][i]:
                    assert after["f"][i] == before["f"][i], ("f", i)
            checked.append((len(rows), len(before["active"])))
        return sol

    with patch.object(tfilm.step, "_solve", solved), \
            patch.object(tfilm.step, "_reduced_gradient", gradient), \
            patch.object(tfilm.step, "dpbsv", counted):
        batched = batched_only(configs)
    for b, ref in zip(batched, [run(c) for c in configs]):
        assert_series_match(b, ref)
    # passes with members still iterating beside members that are done for
    # the step or entering a new eps level
    assert any(0 < solved < active for solved, active in checked)


def test_rows_accepted_before_the_halvings_run_out_carry_their_own_evaluation():
    # two members polish a first iterate already under tol; member 1's trials
    # are rejected until the halvings run out, so it stalls while polishing
    # beside member 0, which accepted the first trial.  The energy, mu and
    # G_sigma'' carried out of that line search, and on to the solution, are
    # those of a fresh evaluation of the accepted heights, bit for bit
    g = Grid(1.0, 16)
    x = g.cell_centers()
    model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                        potential=strong_singular_potential(1e-3), sigma=0.05)
    sp = StepParams(h=1e-3, tol_grad=1e-4)
    u_star = 1.0 + 1e-7 * np.cos(np.pi * np.array([x, 2.0 * x]))
    batch = tfilm.step.StepBatch(g, [model, model], [sp, sp],
                                 [energy(g, row, model.modified) for row in u_star])
    real_functional, real_solve = tfilm.step._functional, tfilm.step._solve
    calls, solutions = [], []

    def rejecting(*args):
        values = real_functional(*args)
        calls.append(values[1])
        if len(calls) > 1:  # the first call enters the eps level, the others are trials
            values[1] = np.inf
        return values

    def solved(prob, start):
        solutions.append(real_solve(prob, start))
        return solutions[-1]

    with patch.object(tfilm.step, "_functional", rejecting), \
            patch.object(tfilm.step, "_solve", solved), \
            patch.object(tfilm.step, "_MAX_HALVINGS", 3):
        results = batch.step(u_star)
    (sol,) = solutions
    # the level's value, then one line search of 3 trials (member 1's first
    # one lowered its value, so only the hook rejected it); member 0 then
    # converged
    assert len(calls) == 4 and calls[1] < calls[0]
    assert sol.iters == [1, 0] == [r.newton_iters for r in results]
    assert not np.array_equal(sol.u[0], u_star[0])
    assert np.array_equal(sol.u[1], u_star[1])
    e, mu, d2g = tfilm.step._evaluate(g, sol.u, batch.problem.potential,
                                      np.zeros((2, g.N + 1)))
    for got, want in zip(sol.energy, e):
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert sol.mu.tobytes() == mu.tobytes()
    assert sol.d2g.tobytes() == d2g.tobytes()
    assert sol.dmu.tobytes() == ((mu[:, 1:] - mu[:, :-1]) / g.dx).tobytes()


def test_a_warm_start_leaving_the_domain_falls_back_cold_in_the_batch():
    g = Grid(1.0, 32)
    configs = family(g, 4, n_steps=6)
    # the one member with this step size has its prediction at step 4 empty a cell
    odd_h = 3e-5
    configs[1] = member(g, alpha=2.0, h=odd_h, n_steps=6)
    real, real_solve = StepState.predicted_flux, tfilm.step._solve
    emptied, batch_failures = [], []
    odd, noting = states_of_step_size(odd_h)

    def leaving_the_domain(state):
        q = real(state)
        if state in odd and len(state.fluxes) == 3 and not emptied:
            q = q.copy()
            q[15] = 1.0 / odd_h  # empties cell 15 far below zero
            emptied.append(q)
        return q

    def watched(prob, start):
        try:
            return real_solve(prob, start)
        except StepNonconvergenceError as exc:
            batch_failures.append((exc.member, start.warm, exc.iters))
            raise

    with noting, patch.object(StepState, "predicted_flux", leaving_the_domain):
        serial = [run(c) for c in configs]
        emptied.clear()
        with patch.object(tfilm.step, "_solve", watched):
            batched = batched_only(configs)
    assert len(emptied) == 1
    # one warm failure, before any iteration, of that member alone, while
    # every member started warm
    assert batch_failures == [(1, [True] * len(configs), 0)]
    for b, ref in zip(batched, serial):
        assert_series_match(b, ref)
        assert np.array_equal(b.column("newton_iters"), ref.column("newton_iters"))
    # the member solved step 4 cold, from zero flux down its eps ladder
    cfg = configs[1]
    cold = tfilm.step.solve_step(g, batched[1].snapshots[3], cfg.model, cfg.step)
    assert np.max(np.abs(batched[1].snapshots[4] - cold.u_next)) <= RTOL
    assert batched[1].diagnostics[4].newton_iters == cold.newton_iters


def test_a_warm_newton_failure_is_solved_cold_in_the_batch():
    g = Grid(1.0, 32)
    configs = family(g, 4, n_steps=6)
    # the one member with this step size is predicted off course from step
    # 4 on, so that Newton fails from its warm start, and run solves it cold
    odd_h = 3e-5
    configs[1] = member(g, alpha=2.0, h=odd_h, n_steps=6, max_newton=14)
    real_predict, real_solve = StepState.predicted_flux, tfilm.step._solve
    batch_failures = []
    odd, noting = states_of_step_size(odd_h)

    def off_course(state):
        q = real_predict(state)
        if state in odd and len(state.fluxes) == 3:
            q = q + 50.0 * np.sin(np.arange(g.N - 1))
        return q

    def watched(prob, start):
        try:
            return real_solve(prob, start)
        except StepNonconvergenceError as exc:
            batch_failures.append((exc.member, start.warm[exc.member]))
            raise

    with noting, patch.object(StepState, "predicted_flux", off_course):
        serial, warm_failures = run_each(configs)
        with patch.object(tfilm.step, "_solve", watched):
            out = batched_only(configs)
    # the batch solved the member cold at each step where run did, and
    # marched on without run
    assert warm_failures > 0
    assert batch_failures == [(1, True)] * warm_failures
    for got, ref in zip(out, serial):
        assert_series_match(got, ref)
        assert np.array_equal(got.column("newton_iters"), ref.column("newton_iters"))


@pytest.mark.parametrize("failure", ["not-positive-definite", "ascent"])
def test_a_failed_newton_direction_in_one_member_raises_runs_error(failure):
    g = Grid(1.0, 32)
    configs = family(g, 4, n_steps=4)
    odd_h = 3e-5
    configs[2] = member(g, alpha=1.0, h=odd_h, n_steps=4)
    # that member's outer Newton band
    odd_band = tfilm.step._Problem(g, [configs[2].model], [configs[2].step]).ab[0, 0, 2]
    real_dpbsv = tfilm.step.dpbsv
    forced = []

    def failing_for_one_member(ab, b):
        # the one solve of a pass holds the iterating members' bands side by side
        n = g.N - 1
        blocks = [k for k, band in enumerate(ab.reshape(3, -1, n)[0, :, 2]) if band == odd_band]
        if not blocks:
            return real_dpbsv(ab, b)
        (k,) = blocks
        forced.append(k)
        if failure == "not-positive-definite":
            return ab, b, k * n + 1  # "leading minor 1 (of the member's band) not PD"
        c, x, info = real_dpbsv(ab, b)
        x[k * n:(k + 1) * n] *= -1.0  # an ascent direction for that member alone
        return c, x, info

    with patch.object(tfilm.step, "dpbsv", failing_for_one_member):
        with pytest.raises(StepNonconvergenceError) as want:
            run(configs[2])
        with pytest.raises(StepNonconvergenceError) as batch:
            tfilm.driver._march_batch(configs)
        with pytest.raises(StepNonconvergenceError) as got:
            run_many(configs)
    # the first iteration fails: in run, then in the batch (alone, then in
    # run_many), where the member's band is not the first in the solve
    k = forced[1]
    assert forced == [0, k, k] and k > 0
    assert str(want.value).startswith("step 1 (t = 3e-05) failed: Newton direction failed: ")
    # the batch's own error is run's, and so is the one run_many raises
    assert str(batch.value) == str(want.value)
    assert str(got.value) == str(want.value)
    for err in (batch.value, got.value):
        assert np.array_equal(err.u_last, want.value.u_last)
        assert np.array_equal(err.j_last, want.value.j_last)
        assert (err.iters, err.grad_norm) == (want.value.iters, want.value.grad_norm)


def test_a_failing_member_raises_runs_error():
    g = Grid(1.0, 32)
    configs = family(g, 4)
    # unreachable tolerance: Newton gives up at its cap in step 1
    configs[3] = member(g, alpha=2.0, tol_grad=1e-15, max_newton=3)
    with pytest.raises(StepNonconvergenceError) as want:
        run(configs[3])
    marched = []
    real_step = tfilm.step.StepBatch.step

    def counted(self, *args):
        marched.append(1)
        return real_step(self, *args)

    with patch.object(tfilm.step.StepBatch, "step", counted):
        with pytest.raises(StepNonconvergenceError) as got:
            run_many(configs)
    assert marched  # the batch was tried first
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("step 1 (t = 1e-05) failed: ")
    assert np.array_equal(got.value.u_last, want.value.u_last)
    assert np.array_equal(got.value.j_last, want.value.j_last)
    assert (got.value.iters, got.value.grad_norm) == (want.value.iters, want.value.grad_norm)


def test_the_earliest_cold_failure_of_a_group_is_raised_as_run_raises_it():
    g = Grid(1.0, 32)
    configs = family(g, 4, n_steps=6)
    # member 1 reaches its Newton cap at step 3, member 3 at step 1
    configs[1] = member(g, alpha=2.0, h=3e-5, n_steps=6, max_newton=6)
    configs[3] = member(g, alpha=2.0, n_steps=6, tol_grad=1e-15, max_newton=3)
    want = {}
    for i in (1, 3):
        with pytest.raises(StepNonconvergenceError) as info:
            run(configs[i])
        want[i] = info.value
    assert str(want[1]).startswith("step 3 (t = 9e-05) failed: Newton did not reach ")
    assert str(want[3]).startswith("step 1 (t = 1e-05) failed: Newton did not reach ")
    # the batch raises member 3's, the first in march order, though member 1
    # comes first in input order
    with pytest.raises(StepNonconvergenceError) as got:
        batched_only(configs)
    err, ref = got.value, want[3]
    assert type(err) is type(ref) and str(err) == str(ref)
    assert np.array_equal(err.u_last, ref.u_last) and np.array_equal(err.j_last, ref.j_last)
    assert (err.iters, err.grad_norm) == (ref.iters, ref.grad_norm)


def test_a_failing_group_does_not_march_the_others_again():
    g1, g2 = Grid(1.0, 32), Grid(1.0, 40)
    first = family(g1, 4, n_steps=3)
    second = family(g2, 3, n_steps=3)
    second[1] = member(g2, alpha=2.0, n_steps=3, tol_grad=1e-15, max_newton=3)
    marched = []
    real_step = tfilm.step.StepBatch.step

    def counted(self, *args):
        marched.append(self.grid)
        return real_step(self, *args)

    with patch.object(tfilm.step.StepBatch, "step", counted):
        with pytest.raises(StepNonconvergenceError) as got:
            batched_only(first + second)
    # the first group's three steps, then the second group's failing first step
    assert marched == [g1] * 3 + [g2]
    assert str(got.value).startswith("step 1 (t = 1e-05) failed: Newton did not reach ")


def test_mixed_grids_are_grouped_and_returned_in_input_order():
    g1, g2, g3 = Grid(1.0, 32), Grid(1.0, 40), Grid(2.0, 32)
    a, b, c = family(g1, 4), family(g2, 5), family(g3, 2)
    configs = [a[0], b[0], c[0], *a[1:3], *b[1:], c[1], *a[3:]]
    batches = []
    real_init = tfilm.step.StepBatch.__init__

    def recorded(self, g, models, *args):
        batches.append((g, len(models)))
        real_init(self, g, models, *args)

    with patch.object(tfilm.step.StepBatch, "__init__", recorded):
        out = batched_only(configs)
    assert sorted(batches, key=str) == sorted([(g1, 4), (g2, 5), (g3, 2)], key=str)
    for got, cfg in zip(out, configs):
        assert got.config is cfg
        assert_series_match(got, run(cfg))


def test_threads_keyword_is_accepted():
    configs = family(Grid(1.0, 16), 4, n_steps=2)
    out = run_many(configs, threads=1)
    assert [s.config for s in out] == configs


def test_a_batch_step_refuses_rows_of_another_shape():
    g = Grid(1.0, 16)
    configs = family(g, 4)
    batch = tfilm.step.StepBatch(g, [c.model for c in configs], [c.step for c in configs],
                                 [c.e0 for c in configs])
    u = np.stack([c.u0 for c in configs])
    # too few rows, one row that would broadcast, rows of the wrong length, a bare row
    for rows in (u[:3], u[:1], u[:, :-1], u[0]):
        with pytest.raises(ValueError) as info:
            batch.step(rows)
        assert "(4, 16)" in str(info.value) and f"got {rows.shape}" in str(info.value)


def test_a_batch_step_refuses_a_start_of_infinite_energy():
    g = Grid(1.0, 16)
    model = ModelParams(alpha=1.0, mobility=constant_mobility(), potential=zero_potential(),
                        sigma=0.1)
    sp = StepParams(h=1e-5)
    good, bad = np.ones(g.N), np.ones(g.N)
    bad[5] = -0.1  # a non-positive cell under the barrier
    with pytest.raises(ValueError) as want:
        tfilm.step.solve_step(g, bad, model, sp)
    batch = tfilm.step.StepBatch(g, [model] * 2, [sp] * 2,
                                 [energy(g, u, model.modified) for u in (good, bad)])
    with pytest.raises(ValueError) as got:
        batch.step(np.stack([good, bad]))
    assert str(got.value) == str(want.value)
    assert "infinite energy" in str(got.value)


def test_a_batch_takes_its_members_in_any_order():
    # zero and quadratic members interleaved, against the same members
    # given one potential kind after the other
    g = Grid(1.0, 32)
    kinds = [(0.5, zero_potential(), 1e-5), (1.0, quadratic_potential(0.8), 2e-5),
             (2.0, zero_potential(), 1e-5), (1.0, quadratic_potential(0.3), 1e-5),
             (1.0, zero_potential(), 2e-5)]
    configs = [member(g, alpha=a, potential=pot, h=h, coeffs=(0.3, -0.2 + 0.05 * i, 0.1, 0.05))
               for i, (a, pot, h) in enumerate(kinds)]
    order = [1, 3, 0, 2, 4]

    def batch(cfgs):
        return tfilm.step.StepBatch(g, [c.model for c in cfgs], [c.step for c in cfgs],
                                    [c.e0 for c in cfgs])

    mixed, grouped = batch(configs), batch([configs[i] for i in order])
    u = np.stack([c.u0 for c in configs])
    for _ in range(4):
        got, want = mixed.step(u), grouped.step(u[order])
        assert len(got) == len(configs)
        for i, ref in zip(order, want):
            for name in (f.name for f in dataclasses.fields(ref)):
                assert np.array_equal(getattr(got[i], name), getattr(ref, name)), (i, name)
        u = np.stack([r.u_next for r in got])


def test_a_batch_step_takes_each_mass_once_and_records_what_it_checked():
    g = Grid(1.0, 32)
    configs = family(g, 4, n_steps=3)
    real_integrate, real_step = tfilm.step.integrate, tfilm.step.StepBatch.step
    masses, results = [], []

    def integrated(g, u):
        masses.append(np.shape(u))
        return real_integrate(g, u)

    def stepped(self, u_stars):
        results.append(real_step(self, u_stars))
        return results[-1]

    with patch.object(tfilm.step, "integrate", integrated), \
            patch.object(tfilm.driver, "integrate", integrated), \
            patch.object(tfilm.step.StepBatch, "step", stepped):
        out = batched_only(configs)
    # one mass per initial height, then per step those of u* and of u_next,
    # each taken once on all rows
    B = len(configs)
    assert len(results) == 3
    assert masses == [(g.N,)] * B + [(B, g.N)] * 2 * len(results)
    for k, step_results in enumerate(results, start=1):
        for res in step_results:
            # the member's series is the one whose height after step k is res's
            (row,) = [s.diagnostics[k] for s in out if np.array_equal(s.snapshots[k], res.u_next)]
            assert (row.mass, row.min_u, row.max_u) == (res.mass, res.min_u, res.max_u)
            assert res.mass == integrate(g, res.u_next)
            assert (res.min_u, res.max_u) == (res.u_next.min(), res.u_next.max())
