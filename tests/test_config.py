import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedstat
from fedstat import cli, config, harness, models
from fedstat.config import METHODS, ExperimentConfig, config_text, parse_config_text
from fedstat.schedules import CommunicationSchedule


def counts(lo, hi):
    """Python or numpy integers in [lo, hi]."""
    ints = st.integers(min_value=lo, max_value=hi)
    return st.one_of(ints, ints.map(np.int64))


@st.composite
def configs(draw):
    model = draw(st.sampled_from(sorted(models.KERNELS)))
    dimension = draw(counts(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["constant", "log", "power"]))
    # A constant schedule never uses its exponent, so it takes any finite one.
    exponents = finite if kind == "constant" else st.floats(min_value=0.05, max_value=0.95)
    schedule = CommunicationSchedule(
        kind,
        base=draw(counts(1, 8)),
        exponent=draw(exponents),
        gamma0=draw(st.floats(min_value=1e-3, max_value=5.0)),
        alpha=draw(st.floats(min_value=0.501, max_value=0.99)),
        warmup_fraction=draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.95))),
    )
    rounds = draw(st.one_of(st.none(), counts(1, 10**6)))
    size = int(dimension)
    vector = st.lists(finite, min_size=size, max_size=size).map(tuple)
    methods = draw(st.permutations(METHODS))[: draw(st.integers(min_value=1, max_value=2))]
    return ExperimentConfig(
        model=model,
        dimension=dimension,
        clients=draw(counts(1, 50)),
        noise_scale=draw(st.floats(min_value=0.0, max_value=1e6)),
        heterogeneity=model != "logistic" and draw(st.booleans()),
        schedule=schedule,
        rounds=rounds,
        target_observations=draw(counts(1, 10**7)) if rounds is None else None,
        replications=draw(counts(1, 10**4)),
        seed=draw(counts(0, 2**63 - 1)),
        methods=tuple(methods),
        alpha_level=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        coordinate=draw(counts(0, size - 1)),
        x0=draw(st.one_of(st.sampled_from(["zeros", "optimum"]), vector)),
        critical_values=draw(
            st.one_of(st.none(), st.text(alphabet="ab/._- 09é", max_size=12).map(str.strip))
        ),
    )


class TestConfigText:
    @given(configs())
    @settings(max_examples=200, deadline=None)
    def test_parse_reads_back_what_config_text_writes(self, c):
        text = config_text(c)
        assert parse_config_text(text) == c
        assert config_text(parse_config_text(text)) == text

    def test_one_line_per_set_key_in_table_order(self):
        c = ExperimentConfig(
            model="quadratic",
            dimension=2,
            noise_scale=0.1,
            heterogeneity=False,
            schedule=CommunicationSchedule("power", exponent=0.5, gamma0=1e-7),
            rounds=np.int64(30),
            target_observations=None,
            methods=("rscale",),
            x0=(0.5, -1 / 3),
        )
        assert config_text(c) == (
            "model = quadratic\n"
            "dimension = 2\n"
            "clients = 10\n"
            "noise_scale = 0.1\n"
            "heterogeneity = off\n"
            "schedule = power\n"
            "schedule_base = 1\n"
            "schedule_exponent = 0.5\n"
            "gamma0 = 1e-07\n"
            "alpha = 0.505\n"
            "warmup_fraction = 0.0\n"
            "rounds = 30\n"
            "replications = 1000\n"
            "seed = 0\n"
            "methods = rscale\n"
            "alpha_level = 0.05\n"
            "coordinate = 0\n"
            "x0 = 0.5,-0.3333333333333333\n"
        )

    @pytest.mark.parametrize(
        "path",
        ["table#1.csv", "a\nb.csv", "a\rb.csv", "a\u2028b.csv", " table.csv", "table.csv\t"],
        ids=["hash", "newline", "return", "line-separator", "leading-blank", "trailing-blank"],
    )
    def test_a_path_the_parser_would_read_differently_is_rejected(self, path):
        try:
            assert parse_config_text(f"critical_values = {path}\n").critical_values != path
        except ValueError:
            pass  # a path with a line break leaves a line that is not 'key = value'
        with pytest.raises(ValueError, match="cannot be written as a config value"):
            config_text(ExperimentConfig(critical_values=path))


@pytest.mark.parametrize(
    "line, message",
    [
        ("dimension = abc", "dimension: 'abc' is not an integer"),
        ("rounds = 1e3", "rounds: '1e3' is not an integer"),
        ("gamma0 = fast", "gamma0: 'fast' is not a number"),
        ("heterogeneity = maybe", "heterogeneity: 'maybe' is not on/off"),
        ("x0 = 1,,2", "x0: '1,,2' is not 'zeros', 'optimum' or a vector"),
    ],
    ids=["int", "int-exponent", "float", "bool", "x0"],
)
def test_cli_names_the_line_and_key_of_a_value_that_does_not_parse(
    line, message, tmp_path, capsys
):
    path = tmp_path / "config.txt"
    path.write_text(f"# a linear run\nmodel = linear\n{line}\nreplications = 2\n")
    assert cli.main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"fedstat: error: line 3: {message}\n"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(model="cubic"), "unknown model 'cubic'"),
        (dict(schedule={"kind": "constant"}), "schedule must be a CommunicationSchedule"),
        (dict(dimension=0), "dimension and clients must be >= 1"),
        (dict(clients=0), "dimension and clients must be >= 1"),
        (dict(rounds=0, target_observations=None), "rounds must be >= 1"),
        (dict(target_observations=0), "target_observations must be >= 1"),
        (dict(replications=0), "replications must be >= 1"),
        (dict(methods=()), "methods must be a nonempty subset of"),
        (dict(methods=("plugin", "bootstrap")), "methods must be a nonempty subset of"),
        (dict(alpha_level=0.0), r"alpha_level must lie in \(0, 1\)"),
        (dict(alpha_level=1.0), r"alpha_level must lie in \(0, 1\)"),
        (dict(coordinate=5), r"coordinate out of range \(0-based\)"),
        (dict(coordinate=-1), r"coordinate out of range \(0-based\)"),
        (dict(x0="ones"), "x0 must be 'zeros', 'optimum' or a vector"),
    ],
    ids=["model", "schedule", "dimension", "clients", "rounds", "target", "replications", "no-methods",
         "unknown-method", "alpha-zero", "alpha-one", "coordinate-high", "coordinate-negative",
         "x0-name"],
)
def test_a_bad_value_is_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "x0", [np.zeros(5), [0, 0.5, 1, 0, 0], (np.float32(0.25),) * 5], ids=["array", "list", "numpy"]
)
def test_a_vector_x0_is_stored_as_a_tuple_of_floats(x0):
    c = ExperimentConfig(x0=x0)
    assert type(c.x0) is tuple and all(type(v) is float for v in c.x0)
    assert c.x0 == tuple(float(v) for v in x0)
    assert c == ExperimentConfig(x0=x0) and hash(c) == hash(ExperimentConfig(x0=x0))
    assert parse_config_text(config_text(c)) == c


def test_config_does_not_reference_the_harness_or_the_engine():
    # The config describes a run; the harness runs it.
    source = inspect.getsource(config)
    assert "harness" not in source and "engine" not in source
    assert "harness" not in vars(config) and "engine" not in vars(config)


def test_harness_and_package_reexport_the_config_objects():
    for name in ("ExperimentConfig", "parse_config_text", "load_config"):
        assert getattr(harness, name) is getattr(config, name)
        assert getattr(fedstat, name) is getattr(config, name)
    assert tuple(harness._STATES) == METHODS
