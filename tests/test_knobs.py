"""Every runtime knob obeys one precedence rule and one error contract.

Choice knobs (dtype, sharing, batching, backend): unset gives the default,
every accepted spelling resolves through the environment, garbage raises a
:class:`ConfigurationError` naming the variable, and ``use()`` beats the
environment, nests, restores, and is a no-op for ``None``.  Number knobs
(worker counts, durations): garbage, zero and negative values raise.
"""

import pytest

from repro.batching import BATCH_KNOB
from repro.core.parallel import default_jobs
from repro.errors import ConfigurationError
from repro.exec import QueueBackend, SubprocessWorkerBackend
from repro.exec.backends import BACKEND_KNOB
from repro.knobs import positive_env
from repro.numeric import DTYPE_KNOB
from repro.share.policy import SHARING_KNOB
from repro.sweep import run_sweep, spec_from_mapping

BACKEND_SPELLINGS = {
    "serial": "serial",
    " Process ": "process",
    "process:2": "process:2",
    "subprocess:3": "subprocess:3",
    "queue": "queue",
    "QUEUE:2": "queue:2",
}

#: (knob, {env spelling: expected value}, two distinct spellings for
#: the override tests).
CHOICE_KNOBS = [
    (DTYPE_KNOB, DTYPE_KNOB.parse, ("float32", "float64")),
    (SHARING_KNOB, SHARING_KNOB.parse, ("cluster", "off")),
    (BATCH_KNOB, BATCH_KNOB.parse, ("on", "off")),
    (BACKEND_KNOB, BACKEND_SPELLINGS, ("queue:2", "serial")),
]


def choice_cases():
    for knob, spellings, _ in CHOICE_KNOBS:
        for spelling, expected in spellings.items():
            yield pytest.param(
                knob, spelling, expected, id=f"{knob.env}={spelling}"
            )


def knob_ids(entry):
    return entry[0].env


@pytest.mark.parametrize("entry", CHOICE_KNOBS, ids=knob_ids)
class TestChoiceKnob:
    def test_unset_gives_default(self, entry, monkeypatch):
        knob = entry[0]
        monkeypatch.delenv(knob.env, raising=False)
        assert knob.active() is knob.default

    def test_blank_env_gives_default(self, entry, monkeypatch):
        knob = entry[0]
        monkeypatch.setenv(knob.env, "  ")
        assert knob.active() is knob.default

    def test_garbage_env_names_the_variable(self, entry, monkeypatch):
        knob = entry[0]
        monkeypatch.setenv(knob.env, "garbage-value")
        with pytest.raises(ConfigurationError, match=knob.env):
            knob.active()

    def test_use_beats_env_nests_and_restores(self, entry, monkeypatch):
        knob, _, (first, second) = entry
        monkeypatch.setenv(knob.env, second)
        from_env = knob.active()
        with knob.use(first) as outer:
            assert knob.active() == outer == knob.resolve(first)
            assert outer != from_env
            with knob.use(second) as inner:
                assert knob.active() == inner == from_env
            assert knob.active() == outer
        assert knob.active() == from_env

    def test_use_none_changes_nothing(self, entry, monkeypatch):
        knob, _, (first, second) = entry
        monkeypatch.setenv(knob.env, second)
        with knob.use(None) as value:
            assert value is None
            assert knob.active() == knob.resolve(second)
        with knob.use(first):
            with knob.use(None):
                assert knob.active() == knob.resolve(first)


@pytest.mark.parametrize("knob, spelling, expected", choice_cases())
def test_env_spelling_resolves(knob, spelling, expected, monkeypatch):
    monkeypatch.setenv(knob.env, spelling)
    assert knob.active() == expected


def tiny_sweep():
    return spec_from_mapping({
        "sweep": {"name": "knob-tiny"},
        "axes": {
            "systems": ["OrinHigh-Ekya"],
            "pairs": ["resnet18_wrn50"],
            "scenarios": ["S1"],
            "durations": [60.0],
        },
    })


def make_queue_backend():
    QueueBackend(1).close()


#: (env var, a call that reads it).  Each raises before doing any work.
NUMBER_KNOBS = [
    ("REPRO_JOBS", default_jobs),
    (
        "REPRO_SWEEP_ABORT_AFTER_SHARDS",
        lambda: run_sweep(tiny_sweep(), jobs=1, backend="serial"),
    ),
    ("REPRO_LEASE_TTL", make_queue_backend),
    ("REPRO_QUEUE_POLL", make_queue_backend),
    ("REPRO_SHARD_TIMEOUT", lambda: SubprocessWorkerBackend(1)),
]


@pytest.mark.parametrize("value", ["banana", "0", "-1", "-0.5", "nan"])
@pytest.mark.parametrize(
    "env, read", NUMBER_KNOBS, ids=[env for env, _ in NUMBER_KNOBS]
)
def test_number_knob_rejects(env, read, value, monkeypatch):
    monkeypatch.setenv(env, value)
    with pytest.raises(ConfigurationError, match=f"{env}.*positive"):
        read()


def test_positive_env_parses_its_kind(monkeypatch):
    monkeypatch.setenv("REPRO_LEASE_TTL", " 2.5 ")
    assert positive_env("REPRO_LEASE_TTL", float) == 2.5
    with pytest.raises(ConfigurationError, match="positive integer"):
        positive_env("REPRO_LEASE_TTL")
