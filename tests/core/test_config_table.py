"""The option table: every spelling of every option, from one loop.

Each :class:`repro.core.config.Option` declares its deck key, env var,
flag, choices and bounds once; these tests walk the table, so a new
option is covered by declaring it.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import make_parser
from repro.core.config import (BY_DECK_KEY, BY_NAME, OPTIONS, CroccoConfig,
                               render_reference, resolve)
from repro.core.errors import ConfigError

ALL_OPTIONS = list(BY_NAME.values())
ENV_VARS = [o.env for o in OPTIONS if o.env]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    # CI runs this suite under REPRO_EXECUTOR / REPRO_BACKEND matrices
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)


def samples(o):
    """Two legal ``(token, value)`` pairs, distinct and the first not the
    option's default — unless the option has a single legal value
    (``amr.tagging``), which both pairs then are."""
    if o.types == (bool,):
        values = [not o.default, o.default]
    elif o.legal() is not None:
        values = [v for v in o.legal() if v != o.default] + [o.default] * 2
    elif o.types == (str,):
        values = ["out/a", "out/b"]
    else:
        base = max(o.default or 0, o.minimum or 0, o.above or 0)
        step = 0.25 if o.types == (float,) else 2
        values = [base + step, base + 2 * step]
    if o.many:
        return [(f"{v} {v}", [v, v]) for v in values[:2]]
    return [(str(v).lower() if isinstance(v, bool) else str(v), v)
            for v in values[:2]]


def with_flag(o, token):
    """Overrides as the CLI would build them from ``<flag> <token>``."""
    argv = ["deck", o.flag] + ([] if o.types == (bool,) else [token])
    args = vars(make_parser().parse_args(argv))
    args.pop("deck")
    return args


def value_of(o, resolved):
    config, run = resolved
    return getattr(config if o in OPTIONS else run, o.name)


def ids(options):
    return [o.name for o in options]


WITH_DECK = [o for o in ALL_OPTIONS if o.deck]
WITH_ENV = [o for o in ALL_OPTIONS if o.env]
WITH_FLAG = [o for o in ALL_OPTIONS if o.flag]


def test_the_table_is_the_dataclass():
    assert [o.name for o in OPTIONS] == [f.name for f in fields(CroccoConfig)]
    assert len(OPTIONS) <= 30 and len(ALL_OPTIONS) <= 40
    for o in OPTIONS:
        assert getattr(CroccoConfig(), o.name) == o.default
    spellings = [s for o in ALL_OPTIONS for s in (o.deck, o.env, o.flag) if s]
    assert len(spellings) == len(set(spellings))


@pytest.mark.parametrize("o", WITH_DECK, ids=ids(WITH_DECK))
def test_deck_key_sets_its_field(o):
    token, value = samples(o)[0]
    assert value_of(o, resolve({o.deck: token.split()})) == value


@pytest.mark.parametrize("o", WITH_ENV, ids=ids(WITH_ENV))
def test_env_var_sets_its_field(o, monkeypatch):
    token, value = samples(o)[0]
    monkeypatch.setenv(o.env, token)
    assert getattr(CroccoConfig(), o.name) == value
    # an explicit constructor argument still wins over the environment
    assert getattr(CroccoConfig(**{o.name: o.default}), o.name) == o.default


@pytest.mark.parametrize("o", WITH_FLAG, ids=ids(WITH_FLAG))
def test_flag_sets_its_field(o):
    token, value = samples(o)[0]
    assert value_of(o, resolve({}, with_flag(o, token))) == value


@pytest.mark.parametrize("o", WITH_DECK, ids=ids(WITH_DECK))
def test_precedence_flag_over_deck_over_env_over_default(o, monkeypatch):
    (tok_a, val_a), (tok_b, val_b) = samples(o)
    # a deck with neither a step nor a time target runs 10 steps
    assert value_of(o, resolve({})) == (10 if o.name == "steps" else o.default)
    if o.env:
        monkeypatch.setenv(o.env, tok_b)
        assert value_of(o, resolve({})) == val_b
        assert value_of(o, resolve({o.deck: tok_a.split()})) == val_a
    if o.flag and o.types != (bool,):
        assert value_of(o, resolve({o.deck: tok_a.split()},
                                   with_flag(o, tok_b))) == val_b


def bad_tokens(o):
    """Tokens the option must reject: below its bound, outside its
    choices, of the wrong type."""
    out = []
    if o.minimum is not None:
        out.append(str(o.minimum - 1))
    if o.above is not None:
        out.append(str(o.above))
    if o.legal() is not None:
        out.append("bogus")
    if str not in o.types:
        out.append("1.5x")
    return out


BAD = [(o, spelling, token)
       for o in ALL_OPTIONS for token in bad_tokens(o)
       for spelling in (o.deck, o.env, o.flag)
       if spelling and not (spelling == o.flag and o.types == (bool,))]


@pytest.mark.parametrize(
    "o, spelling, token", BAD,
    ids=[f"{s}={t}" for _, s, t in BAD])
def test_bad_value_raises_config_error_naming_its_source(o, spelling, token,
                                                         monkeypatch):
    with pytest.raises(ConfigError, match=re.escape(spelling)):
        if spelling == o.deck:
            resolve({o.deck: [token]})
        elif spelling == o.env:
            monkeypatch.setenv(o.env, token)
            CroccoConfig()
        else:
            resolve({}, with_flag(o, token))


def test_validate_names_the_deck_key_of_a_python_set_value():
    with pytest.raises(ConfigError, match="mpi.nranks: must be >= 1"):
        CroccoConfig(nranks=0).validate()
    with pytest.raises(ConfigError, match="amr.tagging: 'vorticity'"):
        CroccoConfig(tagging="vorticity").validate()
    assert CroccoConfig(regrid_int="auto").validate().regrid_int == "auto"


def test_unknown_deck_key_names_the_closest_legal_key():
    with pytest.raises(ConfigError, match="'amr.max_levle'.*'amr.max_level'"):
        resolve({"amr.max_levle": ["2"]})
    # options retired into constants, or gone with the in-run pool, with
    # perfscope, the case cache, the positivity guard or the compression
    # ramp, are unknown keys, not silent no-ops or synonyms
    for key in ("resilience.backoff", "resilience.retry_same_dt",
                "resilience.max_restores", "runtime.executor",
                "runtime.workers", "resilience.supervise",
                "resilience.retries", "resilience.task_timeout",
                "resilience.max_pool_restarts", "runtime.perfscope",
                "run.cache_dir", "resilience.positivity_spike",
                "ramp.mach", "ramp.angle"):
        assert key not in BY_DECK_KEY
        with pytest.raises(ConfigError, match=key):
            resolve({key: ["1"]})


def test_record_is_shorthand_within_its_own_layer():
    config, _ = resolve({"run.record": ["rec"], "run.trace_out": ["t.json"]})
    assert config.trace_out == "t.json"
    assert config.metrics_out == str(Path("rec") / "metrics.jsonl")
    config, _ = resolve({"run.trace_out": ["t.json"]}, {"record": "flagrec"})
    assert config.trace_out == str(Path("flagrec") / "trace.json")


def test_fault_plan_tokens_may_be_space_separated_in_a_deck():
    config, _ = resolve({"resilience.faults.plan": ["task_error@2.1",
                                                    "nan@4"]})
    assert config.faults_plan == "task_error@2.1;nan@4"


def test_reference_is_the_readme_section_and_the_cli_epilog():
    readme = (Path(__file__).parents[2] / "README.md").read_text()
    begin, end = ("<!-- config-reference:begin -->\n",
                  "\n<!-- config-reference:end -->")
    section = readme[readme.index(begin) + len(begin):readme.index(end)]
    assert section == render_reference()
    assert make_parser().epilog == render_reference()
    for o in ALL_OPTIONS:
        for spelling in (o.deck, o.env, o.flag):
            assert spelling is None or f"`{spelling}`" in section
