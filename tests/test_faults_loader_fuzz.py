"""Mutation fuzz of fault-schedule documents (hypothesis).

Every damaged machine or shard schedule document must end one of two
ways: it loads into a schedule that survives ``describe``,
``validate_for`` and a ``to_json`` round trip, or it raises
:class:`~repro.errors.FaultError`.  No bare ``TypeError``,
``ValueError`` or ``OverflowError`` may escape.  Mutations swap one
value (an event field, the seed or a whole kind list) for a value of the
wrong type, drop it, or misspell its name.  Both entry points are
fuzzed: ``from_json`` (``--fault-schedule``, ``--shard-faults``) and
``from_jsonable`` (schedules embedded in a workload).
"""

import copy
import json

from hypothesis import example, given, settings, strategies as st

from repro.errors import FaultError
from repro.faults import FaultSchedule, ShardFaultSchedule

#: An integer with no float: ``math.isfinite`` overflows on it.
HUGE = 10**400

#: Values that trip a careless check: bools posing as ints, NaN and
#: infinities posing as floats, an integer past float range, text, and
#: containers where a number or a list belongs.
EDGE_VALUES = (
    None, True, False, 0, -1, 1.5, float("nan"), float("inf"),
    float("-inf"), HUGE, -HUGE, "", "1", [], [1, "a"], [{}], {},
    {"superstep": 1},
)

MACHINE_DOC = {
    "seed": 3,
    "crashes": [{"superstep": 2, "machine": 1, "repeats": 2}],
    "slowdowns": [
        {"superstep": 4, "machine": 0, "factor": 4.0, "duration": None},
        {"superstep": 1, "machine": 2, "factor": 1.5, "duration": 3},
    ],
    "network_faults": [
        {"superstep": 1, "bandwidth_factor": 2.0, "latency_factor": 1.5,
         "duration": 3},
    ],
}

SHARD_DOC = {
    "seed": 1,
    "crashes": [{"time_s": 0.5, "shard": 1, "downtime_s": 1.0}],
    "partitions": [{"time_s": 0.2, "shard": 0, "duration_s": 0.5}],
    "slowdowns": [
        {"time_s": 1.0, "shard": 2, "factor": 3.0, "duration_s": 0.25},
    ],
}

#: The machine or shard count each document is validated against.
DOCS = {
    "machine": (FaultSchedule, MACHINE_DOC, 3),
    "shard": (ShardFaultSchedule, SHARD_DOC, 3),
}


def sites(doc):
    """Every place a mutation can land: the top-level keys, then each
    event's fields, as paths into ``doc``."""
    paths = [(key,) for key in doc]
    for key, events in doc.items():
        if isinstance(events, list):
            for i, event in enumerate(events):
                paths.extend((key, i, field) for field in event)
    return paths


def mutate(doc, op, pick, value):
    """A damaged deep copy of ``doc``."""
    doc = copy.deepcopy(doc)
    path = sites(doc)[pick % len(sites(doc))]
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    name = path[-1]
    if op == "replace":
        parent[name] = value
    elif op == "drop":
        del parent[name]
    else:  # misspell
        parent[name + "_" if op == "suffix" else name[:-1]] = parent.pop(name)
    return doc


mutations = st.tuples(
    st.sampled_from(["replace", "drop", "suffix", "truncate"]),
    st.integers(min_value=0, max_value=2**16),
    st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.lists(st.sampled_from(EDGE_VALUES), max_size=2),
    ),
)


def check_document(cls, doc, count):
    """``doc`` loads into a usable schedule or raises ``FaultError``."""
    for load in (
        lambda: cls.from_json(json.dumps(doc)),
        lambda: cls.from_jsonable(doc),
    ):
        try:
            schedule = load()
        except FaultError:
            continue
        assert isinstance(schedule, cls)
        for kind, when, detail in schedule.describe():
            assert isinstance(kind, str) and isinstance(detail, str)
        try:
            schedule.validate_for(count)
        except FaultError:
            pass
        text = schedule.to_json()
        assert cls.from_json(text) == schedule
        assert cls.from_json(text).to_json() == text


def _slowdown_factor_site():
    return sites(MACHINE_DOC).index(("slowdowns", 0, "factor"))


def _shard_slowdown_factor_site():
    return sites(SHARD_DOC).index(("slowdowns", 0, "factor"))


@settings(max_examples=200, deadline=None)
@given(mutation=mutations)
@example(mutation=("replace", _slowdown_factor_site(), HUGE))
def test_machine_schedule_documents(mutation):
    cls, doc, count = DOCS["machine"]
    check_document(cls, mutate(doc, *mutation), count)


@settings(max_examples=200, deadline=None)
@given(mutation=mutations)
@example(mutation=("replace", _shard_slowdown_factor_site(), HUGE))
def test_shard_schedule_documents(mutation):
    cls, doc, count = DOCS["shard"]
    check_document(cls, mutate(doc, *mutation), count)


def test_undamaged_documents_load():
    for cls, doc, count in DOCS.values():
        schedule = cls.from_jsonable(doc)
        assert schedule.num_events == sum(
            len(events) for events in doc.values() if isinstance(events, list)
        )
        schedule.validate_for(count)
