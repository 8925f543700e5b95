import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from rtorch.model import (
    Criticality,
    ExecModel,
    MixtureMode,
    Policy,
    ResourceState,
    TaskSpec,
    utilization,
    validate_task,
)


def exec_models():
    return st.builds(
        lambda mu, lo_off, hi_off, mixture: ExecModel(
            mu_us=mu, sigma_us=mu // 20, cutoff_lo_us=mu - lo_off, wcet_us=mu + hi_off,
            mixture=mixture,
        ),
        mu=st.integers(100, 1_000_000),
        lo_off=st.integers(0, 99),
        hi_off=st.integers(0, 10_000),
        mixture=st.lists(
            st.builds(MixtureMode, weight=st.floats(0.0, 0.3), offset_us=st.integers(-50, 5_000)),
            max_size=3,
        ).map(tuple),
    )


def task_specs():
    return st.builds(
        lambda tid, period, frac, crit, model: TaskSpec(
            id=tid,
            period_us=period,
            budget_us=max(1, period * frac // 100),
            exec_model=model,
            criticality=crit,
        ),
        tid=st.text(st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=8),
        period=st.integers(1_000, 10_000_000),
        frac=st.integers(1, 100),
        crit=st.sampled_from(list(Criticality)),
        model=exec_models(),
    )


def resource_states():
    return st.builds(
        ResourceState,
        id=st.text(st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=8),
        policy=st.sampled_from(list(Policy)),
        u_max=st.floats(0.01, 1.0),
        criticality=st.sampled_from(list(Criticality)),
    )


def as_json(value):
    """The dataclass as a scenario file would hold it: enums by value, tuples as arrays."""
    return json.loads(json.dumps(dataclasses.asdict(value), default=lambda member: member.value))


@given(task_specs())
def test_task_roundtrip(task):
    assert TaskSpec.from_dict(as_json(task)) == task


@given(resource_states())
def test_resource_roundtrip(resource):
    assert ResourceState.from_dict(as_json(resource)) == resource


def test_deadline_defaults_to_period():
    model = ExecModel(mu_us=10, sigma_us=0, cutoff_lo_us=10, wcet_us=10)
    t = TaskSpec(id="a", period_us=1_000, budget_us=10, exec_model=model)
    assert t.deadline_us == 1_000
    explicit = TaskSpec(id="a", period_us=1_000, budget_us=10, exec_model=model, deadline_us=500)
    assert explicit.deadline_us == 500


def test_utilization():
    model = ExecModel(mu_us=10_000, sigma_us=0, cutoff_lo_us=10_000, wcet_us=10_000)
    t = TaskSpec(id="a", period_us=100_000, budget_us=10_000, exec_model=model)
    assert utilization(t) == pytest.approx(0.1)


def test_validate_accepts_well_formed_task():
    model = ExecModel(mu_us=9_000, sigma_us=100, cutoff_lo_us=8_500, wcet_us=11_000)
    t = TaskSpec(id="a", period_us=100_000, budget_us=10_000, exec_model=model)
    assert validate_task(t) == []


def test_validate_flags_deadline_past_period():
    model = ExecModel(mu_us=10, sigma_us=0, cutoff_lo_us=10, wcet_us=10)
    t = TaskSpec(id="a", period_us=1_000, budget_us=10, exec_model=model, deadline_us=2_000)
    violations = validate_task(t)
    assert violations == ["deadline must be <= period"]


def test_validate_flags_each_field():
    model = ExecModel(mu_us=50, sigma_us=-1, cutoff_lo_us=60, wcet_us=40)
    t = TaskSpec(id="a", period_us=0, budget_us=0, exec_model=model)
    violations = validate_task(t)
    assert any("period" in v for v in violations)
    assert any("budget" in v for v in violations)
    assert any("sigma" in v for v in violations)
    assert any("cutoff_lo" in v for v in violations)
    assert any("wcet" in v for v in violations)


def test_validate_flags_budget_beyond_deadline():
    model = ExecModel(mu_us=10, sigma_us=0, cutoff_lo_us=10, wcet_us=10)
    t = TaskSpec(id="a", period_us=1_000, budget_us=900, exec_model=model, deadline_us=500)
    assert "budget must be <= deadline" in validate_task(t)


def test_validate_flags_overweight_mixture():
    model = ExecModel(
        mu_us=100, sigma_us=5, cutoff_lo_us=90, wcet_us=1_000,
        mixture=(MixtureMode(0.7, 100), MixtureMode(0.6, 200)),
    )
    t = TaskSpec(id="a", period_us=1_000, budget_us=200, exec_model=model)
    assert "exec_model mixture weights must sum to <= 1" in validate_task(t)


def test_criticality_rank_ordering():
    assert Criticality.HARD.rank < Criticality.SOFT.rank < Criticality.BEST_EFFORT.rank


@pytest.mark.parametrize("member", [*Criticality, *Policy], ids=repr)
def test_enum_members_come_back_as_themselves_so_identity_hashing_is_sound(member):
    """Members hash by identity, which agrees with ``==`` only while no copy is a new object."""
    cls = type(member)
    copies = [copy.copy(member), copy.deepcopy(member), cls(member.value)]
    copies += [pickle.loads(pickle.dumps(member, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    thresholds = {m: i / 10 for i, m in enumerate(cls)}
    tables = [copy.copy(thresholds), copy.deepcopy(thresholds), pickle.loads(pickle.dumps(thresholds))]
    for other in copies:
        assert other is member
        assert thresholds[other] == thresholds[member]
    for table in tables:
        assert table[member] == thresholds[member]


def _id_forbidden_reference(c):
    """The per-character id test ``read_id`` first applied."""
    return c in ',"' or c.isspace() or c < " " or "\x7f" <= c <= "\x9f"


def test_id_pattern_agrees_with_the_character_test_on_every_code_point():
    # lone surrogates included: a JSON id can hold one ("\ud800")
    from rtorch.model import _ID_FORBIDDEN
    search = _ID_FORBIDDEN.search
    assert [c for c in map(chr, range(0x110000)) if bool(search(c)) != _id_forbidden_reference(c)] == []
    assert search("cam_a\u2028b") and not search("cam_é_0001")
