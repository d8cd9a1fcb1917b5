"""The batched ensemble march: ``run_many`` over configs that share a grid
equals ``run`` config by config (to rtol 1e-7 on heights and on every
record column; the EL residual, which sits at roundoff, within its gate
wherever run's is),
member by member, through warm starts that leave the barrier domain,
failing members (Newton caps, failed Newton directions and warm Newton
failures), and mixed grids and step counts."""

import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfilm.driver
import tfilm.step
from tfilm.driver import EnergyAuditError, InitialDataSpec, RunConfig, run, run_many
from tfilm.grid import Grid
from tfilm.models import (
    ModelParams,
    constant_mobility,
    navier_slip_mobility,
    power_mobility,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from tfilm.step import StepCheckError, StepNonconvergenceError, StepParams, StepState

B_MIN = tfilm.driver._BATCH_MIN
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
            bound = 100.0 * (cfg.step.tol_grad + cfg.step.eps_min ** (cfg.model.p - 1.0))
            assert np.all((got[1:] <= bound) | (want[1:] > bound)), name
        elif name == "ede_slack":  # a difference of energies
            assert np.max(np.abs(got - want)) <= RTOL * energy_scale, name
        else:
            assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want)), name


def run_each(configs):
    """run of each config, and the number of steps whose Newton failed from
    the warm start (run solved those steps cold)."""
    real = tfilm.step._descend
    warm_failures = []

    def watched(*args):
        try:
            return real(*args)
        except StepNonconvergenceError:
            warm_failures.append(1)  # a cold failure would end the run
            raise

    with patch.object(tfilm.step, "_descend", watched):
        serial = [run(c) for c in configs]
    return serial, len(warm_failures)


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
    size = draw(st.integers(B_MIN, B_MIN + 3))
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
    try:
        serial, warm_failures = run_each(configs)
    except STEP_ERRORS as exc:
        # a failing member raises run's error, however the group is marched
        with pytest.raises(type(exc)) as info:
            run_many(configs)
        assert str(info.value) == str(exc)
        return
    # a Newton failure from a warm start ends the batch, and run_many runs
    # the configs through run; without one the batch marches them all
    out = run_many(configs) if warm_failures else batched_only(configs)
    for batched, ref in zip(out, serial):
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


def test_configs_of_different_lengths_are_batched_apart():
    g = Grid(1.0, 32)
    configs = [replace_steps(c, n) for c, n in zip(family(g, 2 * B_MIN + 1),
                                                   itertools.cycle([3, 5]))]
    batches = []
    real_init = tfilm.step.StepBatch.__init__

    def recorded(self, g, models, *args):
        batches.append(len(models))
        real_init(self, g, models, *args)

    with patch.object(tfilm.step.StepBatch, "__init__", recorded):
        out = batched_only(configs)
    # one lockstep batch per run length, in the order the lengths first appear
    assert batches == [B_MIN + 1, B_MIN]
    for got, cfg in zip(out, configs):
        assert got.config is cfg
        assert len(got.diagnostics) == cfg.n_steps + 1
        assert_series_match(got, run(cfg))


def test_a_pass_solves_the_iterating_members_and_leaves_the_other_rows_alone():
    g = Grid(1.0, 32)
    configs = [replace_steps(c, 5) for c in family(g, B_MIN + 1)]
    real_pass, real_dpbsv = tfilm.step.StepBatch._newton_pass, tfilm.step.dpbsv
    solves, passes = [], []

    def counted(ab, b):
        solves.append(ab)
        return real_dpbsv(ab, b)

    def watched(batch):
        before = {name: getattr(batch, name).copy()
                  for name in ("q", "u", "e", "f", "mu", "d2g", "it", "level", "active")}
        solves.clear()
        real_pass(batch)
        B = len(batch.ab)
        rows = [i for ab in solves for i in range(B) if np.shares_memory(ab, batch.ab[i])]
        # one dpbsv call per iterating member, and those members take one iteration
        assert len(rows) == len(set(rows)) == len(solves)
        assert before["active"][rows].all()
        stepped = (batch.it == before["it"] + 1) & (batch.level == before["level"])
        assert sorted(rows) == np.flatnonzero(stepped).tolist()
        # every other member rides along: its row is left as it was, except
        # for the functional of a member that entered a new eps level
        for i in sorted(set(range(B)) - set(rows)):
            for name in ("q", "u", "mu", "d2g"):
                assert np.array_equal(getattr(batch, name)[i], before[name][i]), (name, i)
            assert np.array_equal(batch.e[:, i], before["e"][:, i]), ("e", i)
            if batch.level[i] == before["level"][i]:
                assert batch.f[i] == before["f"][i], ("f", i)
        passes.append((len(rows), int(before["active"].sum())))

    with patch.object(tfilm.step, "dpbsv", counted), \
            patch.object(tfilm.step.StepBatch, "_newton_pass", watched):
        batched = batched_only(configs)
    for b, ref in zip(batched, [run(c) for c in configs]):
        assert_series_match(b, ref)
    # passes with members still iterating beside members that are done for
    # the step
    assert any(0 < solved < active for solved, active in passes)


def test_a_warm_start_leaving_the_domain_falls_back_cold_in_the_batch():
    g = Grid(1.0, 32)
    configs = family(g, B_MIN, n_steps=6)
    # the one member with this step size has its prediction at step 4 empty a cell
    odd_h = 3e-5
    configs[1] = member(g, alpha=2.0, h=odd_h, n_steps=6)
    real = StepState.predicted_flux
    emptied = []

    def leaving_the_domain(state):
        q = real(state)
        if state.h == odd_h and len(state.fluxes) == 3 and not emptied:
            q = q.copy()
            q[15] = 1.0 / state.h  # empties cell 15 far below zero
            emptied.append(q)
        return q

    with patch.object(StepState, "predicted_flux", leaving_the_domain):
        serial = [run(c) for c in configs]
        emptied.clear()
        batched = batched_only(configs)
    assert len(emptied) == 1
    for b, ref in zip(batched, serial):
        assert_series_match(b, ref)
        assert np.array_equal(b.column("newton_iters"), ref.column("newton_iters"))
    # the member solved step 4 cold, from zero flux down its eps ladder
    cfg = configs[1]
    cold = tfilm.step.solve_step(g, batched[1].snapshots[3], cfg.model, cfg.step)
    assert np.max(np.abs(batched[1].snapshots[4] - cold.u_next)) <= RTOL
    assert batched[1].diagnostics[4].newton_iters == cold.newton_iters


def test_a_warm_newton_failure_ends_the_batch():
    g = Grid(1.0, 32)
    configs = family(g, B_MIN, n_steps=6)
    # the one member with this step size is predicted off course from step
    # 4 on, so that Newton fails from its warm start, and run solves it cold
    odd_h = 3e-5
    configs[1] = member(g, alpha=2.0, h=odd_h, n_steps=6, max_newton=14)
    real_predict, real_run = StepState.predicted_flux, tfilm.driver.run
    reruns = []

    def off_course(state):
        q = real_predict(state)
        if state.h == odd_h and len(state.fluxes) == 3:
            q = q + 50.0 * np.sin(np.arange(g.N - 1))
        return q

    def counted(cfg):
        reruns.append(cfg)
        return real_run(cfg)

    with patch.object(StepState, "predicted_flux", off_course):
        serial, warm_failures = run_each(configs)
        with patch.object(tfilm.driver, "run", counted):
            out = run_many(configs)
    assert warm_failures > 0
    # the batch gave up, and every config was run again through run
    assert len(reruns) == len(configs) and all(a is b for a, b in zip(reruns, configs))
    for got, ref in zip(out, serial):
        assert got.config is ref.config
        assert np.array_equal(got.diagnostics, ref.diagnostics)
        assert got.snapshots.keys() == ref.snapshots.keys()
        assert all(np.array_equal(got.snapshots[k], u) for k, u in ref.snapshots.items())


@pytest.mark.parametrize("failure", ["not-positive-definite", "ascent"])
def test_a_failed_newton_direction_in_one_member_raises_runs_error(failure):
    g = Grid(1.0, 32)
    configs = family(g, B_MIN, n_steps=4)
    odd_h = 3e-5
    configs[2] = member(g, alpha=1.0, h=odd_h, n_steps=4)
    odd_band = tfilm.step._workspace(g, odd_h).ab[0, 2]  # that member's outer Newton band
    real_dpbsv = tfilm.step.dpbsv
    forced = []

    def failing_for_one_member(ab, b):
        if ab[0, 2] != odd_band:
            return real_dpbsv(ab, b)
        forced.append(1)
        if failure == "not-positive-definite":
            return ab, b, 1  # "leading minor 1 not positive definite"
        c, x, info = real_dpbsv(ab, b)
        return c, -x, info  # an ascent direction

    with patch.object(tfilm.step, "dpbsv", failing_for_one_member):
        with pytest.raises(StepNonconvergenceError) as want:
            run(configs[2])
        with pytest.raises(StepNonconvergenceError) as got:
            run_many(configs)
    # the first iteration fails: in run, in the batch, and in run_many's rerun
    assert len(forced) == 3
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("step 1 (t = 3e-05) failed: Newton direction failed: ")
    assert np.array_equal(got.value.u_last, want.value.u_last)
    assert np.array_equal(got.value.j_last, want.value.j_last)
    assert (got.value.iters, got.value.grad_norm) == (want.value.iters, want.value.grad_norm)


def test_a_failing_member_raises_runs_error():
    g = Grid(1.0, 32)
    configs = family(g, B_MIN)
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


def test_mixed_grids_are_grouped_and_returned_in_input_order():
    g1, g2, g3 = Grid(1.0, 32), Grid(1.0, 40), Grid(2.0, 32)
    a, b = family(g1, B_MIN), family(g2, B_MIN + 1)
    c = family(g3, 2)  # below the crossover: config by config
    configs = [a[0], b[0], c[0], *a[1:3], *b[1:], c[1], *a[3:]]
    batches = []
    real_init = tfilm.step.StepBatch.__init__

    def recorded(self, g, models, *args):
        batches.append((g, len(models)))
        real_init(self, g, models, *args)

    with patch.object(tfilm.step.StepBatch, "__init__", recorded):
        out = run_many(configs)
    assert sorted(batches, key=str) == sorted([(g1, B_MIN), (g2, B_MIN + 1)], key=str)
    for got, cfg in zip(out, configs):
        assert got.config is cfg
        assert_series_match(got, run(cfg))


def test_small_groups_run_config_by_config():
    configs = family(Grid(1.0, 32), B_MIN - 1)
    with patch.object(tfilm.step.StepBatch, "__init__",
                      side_effect=AssertionError("batched below the crossover")):
        out = run_many(configs)
    for got, cfg in zip(out, configs):
        assert_series_match(got, run(cfg))


def test_threads_keyword_is_accepted():
    configs = family(Grid(1.0, 16), B_MIN, n_steps=2)
    out = run_many(configs, threads=1)
    assert [s.config for s in out] == configs
