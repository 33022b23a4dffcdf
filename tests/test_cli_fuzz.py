"""The command line's input boundary, fuzzed end to end.

Hypothesis draws `simulate` and `verify` config documents and `orbit` and
`bracket` argv.  Each value is either one the command accepts or junk:
null, bools, ints (one beyond the float range included), floats (NaN,
infinities and 1e300 included), strings, lists and objects.  Whatever the
input, a run keeps the exit code contract of the CLI docstring:

- the exit code is 0, 1, 2 or 3, and 1 only from a `verify` that prints
  `RESULT: FAIL`;
- a run that exits 2 or 3 prints nothing on stdout;
- stderr has at most one line, or two for a flow that writes a partial
  trajectory and exits 3;
- no exception (a traceback) and no numpy warning leaves `main`.

`steps` is at most 50, so that no example allocates more than a little
memory.  Outputs go to names without a "/", in a scratch directory.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from aristotle_orbits import cli, group_models as gm, orbit_chart as oc

_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.too_slow])

_FLOATS = st.floats() | st.sampled_from([float("nan"), 1e300, -1e300])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.just(10**400) | _FLOATS | st.text(max_size=6))
_JUNK = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

_NICE = st.sampled_from([0.0, 1.0, -0.5, 0.3, 2.0, 1e-300, 1e300,
                         float("nan")])
_MILD = st.sampled_from([0.3, 1.0, -0.5, 0.0, 2.0])
# base, which has no chart, last: a draw leans towards the first choices
_MODELS = st.sampled_from(cli.MODEL_NAMES[1:] + cli.MODEL_NAMES[:1])
_LABELS = st.lists(
    st.builds("{}={}".format, st.sampled_from(["h", "f", "k", "j", "E", "l",
                                               "zz"]), _NICE)
    | st.text(max_size=4), max_size=3)


def _chart_dim(model):
    return len(oc.CHART_COORDS[model])


def _sized(model, size):
    """A list of mild numbers as long as size(model), or 4 for base."""
    n = size(gm.ModelId(model)) if model != "base" else 4
    return st.lists(_MILD, min_size=n, max_size=n)


def _with_point(model):
    return st.fixed_dictionaries(
        {"model": st.just(model), "point": _sized(model, _chart_dim)},
        optional={"xi": _sized(model, gm.dim)})


_SIM_VALID = {
    "flow": st.sampled_from(["hamiltonian", "group"]),
    "dt": st.sampled_from([0.1, 0.01, 1, 10.0]),
    "steps": st.integers(1, 50),
    "out": st.sampled_from(["traj.out", "", ".", "traj\0.out"]),
}
_SIM_OPTIONAL = {
    "hamiltonian": st.sampled_from(["kinetic", "energy", "canonical"]),
    "integrator": st.sampled_from(["rk4", "implicit-midpoint"]),
    "format": st.sampled_from(["csv", "json"]),
    "m": st.sampled_from([1.7, 0.6, 1.3]),
    "omega": st.sampled_from([0.6, 1.3, 1.7]),
    "r": st.sampled_from([1.3, 1.7, 0.6]), "label": _LABELS,
}
#: Values that replace a key of a working document: null half the time.
_MUTANT = st.none() | _JUNK


def _mutated(valid, keys):
    """A document drawn from valid, with up to two keys dropped and up to
    four set to a _MUTANT, an unknown key among them."""
    def mutate(doc, dropped, mutants):
        doc = {**doc, **mutants}
        return {k: v for k, v in doc.items() if k not in dropped}
    return st.builds(mutate, valid, st.sets(st.sampled_from(keys), max_size=2),
                     st.dictionaries(st.sampled_from(keys + ["sed"]), _MUTANT,
                                     max_size=4))


def _simulate_documents():
    valid = st.builds(lambda a, b: {**a, **b}, _MODELS.flatmap(_with_point),
                      st.fixed_dictionaries(_SIM_VALID,
                                            optional=_SIM_OPTIONAL))
    return _mutated(valid, sorted(cli._SIM_DEFAULTS)).filter(
        # no int above 50, so that a run allocates little, and no path
        # outside the scratch directory
        lambda doc: not (isinstance(doc.get("steps"), int)
                         and doc["steps"] > 50)
        and not (isinstance(doc.get("out"), str) and "/" in doc["out"]))


def _corruption(model):
    labels = st.sampled_from(gm.ALGEBRA_LABELS[gm.ModelId(model)] + ("zz",))
    return st.fixed_dictionaries(
        {"model": st.just(model), "a": labels, "b": labels, "out": labels},
        optional={"delta": _NICE, "dleta": _NICE})


def _verify_documents():
    valid = st.fixed_dictionaries(
        {"seed": st.integers(0, 6),
         "models": st.lists(_MODELS, min_size=1, max_size=1)},
        optional={"corrupt": _MODELS.flatmap(_corruption)})
    return _mutated(valid, ["seed", "models", "corrupt"])


def _run(argv, cfg=None):
    """Exit code, stdout and stderr of main(argv) in a scratch directory.

    cfg, if given, is written as the --config document.  A warning is an
    error, and an exception that leaves main fails the test with the input
    that raised it.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)
        try:
            if cfg is not None:
                with open("cfg.json", "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                argv = argv + ["--config", "cfg.json"]
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"{argv} {cfg!r}: {exc!r}") from exc
        finally:
            os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(command, code, out, err):
    assert code in (0, 1, 2, 3)
    if code == 1:
        # a property check failed, which only verify reports
        assert command == "verify" and "RESULT: FAIL" in out
    if code in (2, 3):
        assert out == ""
    lines = err.splitlines()
    if len(lines) == 2:
        assert code == 3 and lines[0].startswith("wrote partial trajectory")
    else:
        assert len(lines) <= 1
    assert "Traceback" not in err


@settings(_SETTINGS, max_examples=300)
@given(cfg=_simulate_documents())
def test_simulate_documents_keep_the_exit_code_contract(cfg):
    _assert_contract("simulate", *_run(["simulate"], cfg))


@settings(_SETTINGS, max_examples=60)
@given(cfg=_verify_documents())
def test_verify_documents_keep_the_exit_code_contract(cfg):
    _assert_contract("verify", *_run(["verify"], cfg))


def _numbers(model, size):
    """Comma separated numbers: as many mild ones as the model takes, any
    count of any, or junk text."""
    return ((_sized(model, size) | st.lists(_NICE, min_size=1, max_size=8))
            .map(lambda values: ",".join(map(repr, values)))
            | st.text(",0.1e-n", max_size=6))


_PARAM_FLAGS = st.lists(
    st.tuples(st.sampled_from(["--m", "--omega", "--r"]),
              st.sampled_from([1.7, 0.6, 1e-300, 1e300, 0.0, -1.0,
                               float("nan")]).map(repr)),
    max_size=2).map(lambda pairs: [f"{k}={v}" for k, v in pairs])


@st.composite
def _orbit_argv(draw):
    model = draw(_MODELS)
    return ["orbit", "--model", model, "--xi=" + draw(_numbers(model, gm.dim)),
            *draw(_PARAM_FLAGS)]


@st.composite
def _bracket_argv(draw):
    model = draw(_MODELS)
    names = oc.CHART_COORDS.get(gm.ModelId(model), ())
    coord = st.sampled_from(names + ("p1", "zz", ""))
    return ["bracket", "--model", model,
            "--at=" + draw(_numbers(model, _chart_dim)),
            "--f=" + draw(coord), "--g=" + draw(coord),
            *("--label=" + item for item in draw(_LABELS)),
            *draw(_PARAM_FLAGS)]


@settings(_SETTINGS, max_examples=150)
@given(argv=_orbit_argv())
def test_orbit_argv_keeps_the_exit_code_contract(argv):
    _assert_contract("orbit", *_run(argv))


@settings(_SETTINGS, max_examples=150)
@given(argv=_bracket_argv())
def test_bracket_argv_keeps_the_exit_code_contract(argv):
    _assert_contract("bracket", *_run(argv))
