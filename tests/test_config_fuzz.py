"""Fuzz of the CLI configuration boundary: every config file and argv
either resolves to a `Run` that uses only inputs its scenario reads,
or raises `ConfigError` (exit 2), never another exception."""
import argparse
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branelab import cli

EMBEDDING_KEYS = sorted({k for _, keys in cli.EMBEDDINGS.values() for k in keys})
JUNK = st.sampled_from(["", "bogus", "1", "x y", "nan"])
NUMBER = st.one_of(st.integers(-3, 40).map(str),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr))
VALUE = st.one_of(
    st.sampled_from(["4", "3,4", "0.001,0.0005,0.00025", "1e-3", "0.5"]),
    NUMBER,
    st.lists(NUMBER, min_size=1, max_size=4).map(",".join),
    st.text(alphabet="0123456789.,-+e xn", max_size=10),
    JUNK,
)

# halving schedules a, a/2, a/4 with a across the float range: the largest
# make the checks' tolerance 10 min(eps)**2 overflow, the smallest underflow
HALVING = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(
    lambda a: f"{a!r},{a / 2!r},{a / 4!r}")


def one_in(n):
    """True about once in n draws.  The rare case is the largest integer,
    since hypothesis leans towards small ones."""
    return st.integers(0, n - 1).map(lambda k: k == n - 1)


def named(names):
    """Mostly a catalog name, sometimes junk."""
    return st.one_of(st.sampled_from(list(names)), st.sampled_from(list(names)),
                     JUNK)


def entries(keys, ident=None):
    """`key = value` pairs with distinct keys drawn from ``keys`` (plus an
    unknown one), after an optional `id` drawn from ``ident``."""
    key = st.one_of(*[st.sampled_from(keys)] * 3, st.just("junk"))
    pairs = st.lists(st.tuples(key, VALUE), max_size=4, unique_by=lambda kv: kv[0])
    if ident is None:
        return pairs
    head = st.lists(st.tuples(st.just("id"), named(ident)), max_size=1)
    return st.tuples(head, pairs).map(lambda hp: hp[0] + hp[1])


SECTIONS = {
    "scenario": named(cli.SCENARIOS).map(lambda name: [("name", name)]),
    "embedding": entries(EMBEDDING_KEYS, ident=cli.EMBEDDINGS),
    "model": entries(list(cli.COUPLING_KEYS), ident=cli.MODELS),
    "run": entries(list(cli.RUN_KEYS)),
}


@st.composite
def config_text(draw):
    """Each of the four sections with probability 3/4, sometimes an unknown
    section or a line configparser cannot read."""
    lines = []
    for name in SECTIONS:
        if not draw(one_in(4)):
            lines.append(f"[{name}]")
            lines += [f"{key} = {value}" for key, value in draw(SECTIONS[name])]
    if draw(one_in(8)):
        lines += ["[extra]", "key = 1"]
    if draw(one_in(8)):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["no equals sign", "[", "= 3"])))
    return "\n".join(lines) + "\n"


ARGS = st.fixed_dictionaries({
    "scenario": st.one_of(st.none(), named(cli.SCENARIOS), named(cli.SCENARIOS)),
    "grid": st.one_of(st.none(), VALUE),
    "eps": st.one_of(st.none(), VALUE, HALVING),
    "tol": st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
    "skip_config": one_in(4),
})

# flag values a run takes: a node count, a halving schedule of the size
# the scenarios use, a finite tolerance
RUN_FLAGS = {
    "grid": st.integers(1, 64).map(str),
    "eps": st.floats(1e-5, 1e-2).map(lambda a: f"{a!r},{a / 2!r},{a / 4!r}"),
    "tol": st.floats(0.0, 1.0),
}


@st.composite
def config_and_argv(draw):
    """Config text and argv flags.  Half the draws are a run: a catalog
    scenario named by --scenario or by a config holding only its
    [scenario] section, and flags it reads, each absent or with a value a
    run takes.  The other half are `config_text` and ``ARGS``, where most
    inputs are usage errors."""
    if not draw(st.booleans()):
        return draw(config_text()), draw(ARGS)
    scenario = draw(st.sampled_from(list(cli.SCENARIOS)))
    in_argv = draw(st.booleans())
    argv = {"scenario": scenario if in_argv else None,
            "skip_config": in_argv and draw(st.booleans())}
    for key, values in RUN_FLAGS.items():
        read = key in cli.SCENARIOS[scenario].reads
        argv[key] = draw(st.one_of(st.none(), values)) if read else None
    return ("" if in_argv else f"[scenario]\nname = {scenario}\n"), argv


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=config_and_argv())
def test_config_resolves_or_is_a_usage_error(tmp_path, drawn):
    text, argv = drawn
    path = tmp_path / "fuzz.ini"
    path.write_text(text)
    skip_config = argv.pop("skip_config")
    args = argparse.Namespace(config=None if skip_config else str(path), **argv)
    try:
        run = cli.resolve_config(args)
    except cli.ConfigError:
        return
    assert run.scenario in cli.SCENARIOS
    assert run.embedding_id in cli.EMBEDDINGS
    assert math.isfinite(10.0 * min(run.eps) ** 2)   # the checks' tolerance
    # every input that resolved is one the scenario's record reads
    sc = cli.SCENARIOS[run.scenario]
    raw = {} if skip_config else cli.load_config(path)
    used = {k for k in cli.RUN_KEYS if k in raw or argv.get(k) is not None}
    assert used <= set(sc.reads)
    assert (run.model_id is None) == (sc.model is None) == (run.model is None)
    model_reads = cli.MODELS[run.model_id][1] if run.model_id else ()
    assert set(raw.get("couplings", {})) <= set(sc.couplings) | set(model_reads)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(name=st.sampled_from([name for name, sc in cli.SCENARIOS.items()
                             if "eps" in sc.reads]), eps=HALVING)
def test_halving_eps_schedules_resolve_or_are_a_usage_error(name, eps):
    # the rest of the run is valid, so only the schedule decides
    args = argparse.Namespace(config=None, scenario=name, grid=None, eps=eps,
                              tol=None)
    try:
        run = cli.resolve_config(args)
    except cli.ConfigError:
        return
    assert math.isfinite(10.0 * min(run.eps) ** 2)   # the checks' tolerance


COUPLED = [name for name, sc in cli.SCENARIOS.items()
           if sc.couplings or sc.model]


@st.composite
def coupled_config(draw):
    """Config text naming a scenario that reads couplings, with a [model]
    section holding a nonempty subset of them (its record's, or its
    default model's), each a finite positive value, and sometimes the
    default model's id; and the drawn couplings."""
    name = draw(st.sampled_from(COUPLED))
    sc = cli.SCENARIOS[name]
    reads = tuple(sc.couplings) + (cli.MODELS[sc.model][1] if sc.model else ())
    keys = draw(st.lists(st.sampled_from(reads), min_size=1, unique=True))
    value = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    lines = [f"[scenario]\nname = {name}\n[model]"]
    if sc.model and draw(st.booleans()):
        lines.append(f"id = {sc.model}")
    couplings = {key: draw(value) for key in keys}
    lines += [f"{key} = {val!r}" for key, val in couplings.items()]
    return "\n".join(lines) + "\n", couplings


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=coupled_config())
def test_couplings_the_scenario_reads_resolve(tmp_path, drawn):
    text, couplings = drawn
    path = tmp_path / "coupled.ini"
    path.write_text(text)
    args = argparse.Namespace(config=str(path), scenario=None, grid=None,
                              eps=None, tol=None)
    run = cli.resolve_config(args)
    assert run.couplings == {**cli.SCENARIOS[run.scenario].couplings, **couplings}
    # each drawn coupling reaches the model, or the runner through run.couplings
    held = run.couplings if run.model is None else vars(run.model)
    for key, val in couplings.items():
        assert held[key] == val
