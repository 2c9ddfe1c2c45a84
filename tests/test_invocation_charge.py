"""The inline charge: the firing loop's and the fused chain's copy of
``CostModel.invocation_cost``, draw for draw.

``CostModel.invocation_charge`` publishes the constants of a firing's
charge and the jitter generator's ``random``; the director and
``FusedChain`` evaluate it inline with one draw per firing.  Over 10 000
seeded firings, with the generator's state dumped and restored halfway
(as a checkpoint does), the inline charge must give exactly what the
method gives: the same costs, in the same order, from the same draws.
"""

import random

import pytest

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.workflow import Workflow
from repro.fusion import fuse_workflow
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.stafilos.schedulers import FIFOScheduler, RoundRobinScheduler
from repro.stafilos.scwf_director import SCWFDirector

#: (jitter, scale): the integer path, the calibrated Linear Road model
#: (``harness.configs.default_cost_model``) and a sub-unit scale.
CASES = ((0, 1.0), (0.05, 2.2), (0.1, 0.7))

#: Source arrivals; about four internal firings each.
EVENTS = 2_600


class _MethodPath(CostModel):
    """Overrides ``invocation_cost``: the loop must call it."""

    def __init__(self, **fields):
        super().__init__(**fields)
        self.calls = 0

    def invocation_cost(self, actor, ctx):
        self.calls += 1
        return super().invocation_cost(actor, ctx)


def _spread(value):
    """Zero, one or two outputs, so the output term varies."""
    if value % 3 == 0:
        return None
    if value % 3 == 1:
        return value
    return [value, value + 1]


def _run(cost_model, scheduler, fuse=False):
    """Source -> three maps -> sink; dump and restore the generator's
    state halfway.  Returns every per-item charge the scheduler heard,
    the sink canon, the statistics and the generator's final state."""
    workflow = Workflow("charge")
    source = SourceActor("src", arrivals=[(i * 400, i) for i in range(EVENTS)])
    source.add_output("out")
    maps = [
        MapActor("spread", _spread),
        MapActor("inc", lambda v: v + 1),
        MapActor("dbl", lambda v: 2 * v),
    ]
    for hop, actor in enumerate(maps):
        actor.nominal_cost_us = 120 + 45 * hop
    sink = SinkActor("sink")
    workflow.add_all([source, *maps, sink])
    for upstream, downstream in zip([source, *maps], [*maps, sink]):
        workflow.connect(upstream, downstream)
    if fuse:
        assert fuse_workflow(workflow).fused_actors == 3
    clock = VirtualClock()
    director = SCWFDirector(scheduler, clock, cost_model)
    director.attach(workflow)
    charges = []
    fire_end = scheduler.on_actor_fire_end

    def logging_fire_end(actor, cost_us, now, items=1):
        charges.append((actor.name, cost_us, now, items))
        fire_end(actor, cost_us, now, items)

    scheduler.on_actor_fire_end = logging_fire_end
    runtime = SimulationRuntime(director, clock)
    runtime.run(EVENTS * 400 / 2 / 1_000_000)
    state = cost_model.state_dump()
    cost_model._rng.random()  # a draw the restore must take back
    cost_model.state_restore(state)
    runtime.run(10.0, drain=True)
    canon = [(now, event.timestamp, event.value) for now, event in sink.items]
    return (
        charges,
        canon,
        director.statistics.snapshot(),
        cost_model._rng.getstate(),
    )


@pytest.mark.parametrize("jitter, scale", CASES)
@pytest.mark.parametrize("policy", [FIFOScheduler, RoundRobinScheduler])
def test_inline_charge_equals_invocation_cost(
    jitter, scale, policy, monkeypatch
):
    method = _MethodPath(jitter=jitter, scale=scale, seed=11)
    reference = _run(method, policy())
    firings = sum(
        items for name, _, _, items in reference[0] if name != "src"
    )
    assert firings >= 10_000 and method.calls == firings
    calls = []
    invocation_cost = CostModel.invocation_cost

    def counted(self, actor, ctx):
        calls.append(actor.name)
        return invocation_cost(self, actor, ctx)

    monkeypatch.setattr(CostModel, "invocation_cost", counted)
    inline = _run(CostModel(jitter=jitter, scale=scale, seed=11), policy())
    assert calls == []  # the inline path really ran
    assert inline == reference


@pytest.mark.parametrize("jitter, scale", CASES)
def test_fused_chain_charges_inline_too(jitter, scale):
    method = _MethodPath(jitter=jitter, scale=scale, seed=5)
    reference = _run(method, FIFOScheduler(), fuse=True)
    assert method.calls >= 3 * EVENTS - EVENTS // 3
    inline = _run(
        CostModel(jitter=jitter, scale=scale, seed=5),
        FIFOScheduler(),
        fuse=True,
    )
    assert inline == reference


def test_one_draw_gives_what_uniform_gives():
    """``random.uniform(a, b)`` is ``a + (b - a) * random()``."""
    model = CostModel(jitter=0.05, scale=2.2)
    actor = MapActor("m", lambda v: v)
    _, _, _, _, low, width, _ = model.invocation_charge(actor)
    left, right = random.Random(3), random.Random(3)
    for _ in range(10_000):
        assert low + width * left.random() == right.uniform(-0.05, 0.05)


def test_the_method_path_is_kept_where_the_charge_may_differ():
    actor = MapActor("m", lambda v: v)
    assert _MethodPath().invocation_charge(actor) is None
    shadowed = CostModel()
    shadowed.invocation_cost = lambda actor, ctx: 1
    assert shadowed.invocation_charge(actor) is None
    charge = CostModel().invocation_charge(actor)
    assert charge[3] is None and charge[6] is None  # integer arithmetic
    assert CostModel(scale=2.0).invocation_charge(actor)[3] == 2.0
