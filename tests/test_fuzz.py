"""The public entry points that run no integration, on hostile numbers.

Every call returns finite numbers or raises an :class:`XyPurifyError` of
the ``ValueError`` family, and every command exits 0 or 2; pytest makes
each warning an error.  The numbers are hypothesis floats with nan and
the infinities, +-0, subnormals, +-1e308, their numpy float64 forms and
ints past the float range, mixed with numbers of the domain so that the
valid paths run too.  ``validate-cavity`` integrates, which is too slow
for this test: its bounds have explicit cases in test_cli.py.
"""
import dataclasses
import warnings

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from xypurify import (
    BelowThresholdWarning,
    CavityGeometry,
    ConfigurationError,
    DensityMatrix,
    ProtocolConfig,
    XyPurifyError,
    asymptotic_hamiltonian,
    bell_diagonal_map,
    closed_form_at,
    closed_form_general,
    fixed_point,
    operational_time,
    pump,
    simulate_batch,
    solve_geometry,
    werner_weights,
)
from xypurify.cli import main

EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
         1e308, -1e308, 0.5, 1.0)
BIG_INTS = (2**1024, -(2**1024), 10**400)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
NUMBERS = st.one_of(
    ANY_FLOAT,
    st.floats(-2.0, 2.0),
    st.sampled_from(EDGES),
    st.one_of(ANY_FLOAT, st.sampled_from(EDGES)).map(np.float64),
    st.sampled_from(BIG_INTS),
)
COUNTS = st.one_of(st.integers(-2, 12), st.sampled_from(BIG_INTS),
                   st.sampled_from((True, np.int64(3))), NUMBERS)
# 10^-80 .. 10^80 of either sign: the scales around every cavity bound
SCALES = st.floats(-80.0, 80.0).map(lambda e: 10.0 ** e)
GEOMETRY = st.one_of(NUMBERS, SCALES, st.floats(0.0, 40.0))
DETUNING = st.one_of(NUMBERS, SCALES, SCALES.map(lambda x: -x))

# the same examples on every run, so that a tier-1 run is reproducible; a
# 5 s deadline per example, against the few ms each takes, fails one that
# runs away
QUICK = settings(max_examples=150, deadline=5000, derandomize=True)
COMMANDS = settings(max_examples=40, deadline=5000, derandomize=True)


def numbers_in(obj):
    """Every number a result holds, through dataclasses, sequences and arrays."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from numbers_in(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from numbers_in(item)
    elif isinstance(obj, np.ndarray):
        yield from obj.ravel().tolist()
    elif not isinstance(obj, str):
        yield obj


def test_numbers_in_reaches_the_round_record():
    # the record is a named tuple, not a dataclass: the tuple branch walks it
    record = closed_form_general(0.75, 0.8)
    assert not dataclasses.is_dataclass(record)
    assert list(numbers_in(record)) == [record.fidelity, record.success_probability]
    assert list(numbers_in(closed_form_at(0.3, 0.7))) == list(closed_form_at(0.3, 0.7))


def finite_or_rejected(call):
    """call()'s result, with every number in it finite; None if call() rejected."""
    try:
        result = call()
    except XyPurifyError as err:
        assert isinstance(err, ValueError), repr(err)
        return None
    assert all(np.isfinite(x) for x in numbers_in(result)), result
    return result


@QUICK
@given(a=NUMBERS, b=NUMBERS, c=NUMBERS)
def test_density_matrix(a, b, c):
    # diagonal a, b and coherence c; ints past the float range included
    finite_or_rejected(lambda: DensityMatrix([[a, c], [c, b]]))


@QUICK
@given(f=NUMBERS, f_prime=NUMBERS, t0=NUMBERS)
def test_round_closed_forms(f, f_prime, t0):
    finite_or_rejected(lambda: closed_form_general(f, f_prime))
    finite_or_rejected(lambda: closed_form_at(t0, f))
    finite_or_rejected(lambda: bell_diagonal_map(f))


@QUICK
@given(f=NUMBERS, j=NUMBERS, n=COUNTS,
       mode=st.sampled_from(("closed_form", "simulation", "other")))
def test_pumping_and_times(f, j, n, mode):
    finite_or_rejected(lambda: fixed_point(f))
    finite_or_rejected(lambda: werner_weights(f))
    finite_or_rejected(lambda: operational_time(j, n))
    finite_or_rejected(lambda: pump(f, n, mode))


@QUICK
@given(ell=GEOMETRY, d=GEOMETRY, v=GEOMETRY, delta=DETUNING)
def test_cavity_geometry(ell, d, v, delta):
    finite_or_rejected(lambda: solve_geometry(ell))
    geom = finite_or_rejected(lambda: CavityGeometry(ell=ell, d=d, v=v, delta=delta))
    if geom is not None:
        finite_or_rejected(lambda: (geom.window(), geom.j_effective, geom.t_prime,
                                    geom.mean_coupling, geom.g_trapped))
        finite_or_rejected(lambda: asymptotic_hamiltonian(geom))


# a seed is a 64-bit integer, signed or unsigned; these sit on and past
# both ends, with the bools and numpy forms
SEED_EDGES = (-(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 2**64 + 1, -(2**64) - 1,
              True, False, np.int64(-1), np.uint64(2**64 - 1))
SEEDS = st.one_of(st.integers(-(2**64) - 2, 2**64 + 2), st.sampled_from(SEED_EDGES),
                  NUMBERS)


@QUICK
@given(seed=SEEDS)
def test_protocol_seed(seed):
    in_range = (not isinstance(seed, bool) and isinstance(seed, (int, np.integer))
                and -(2**63) <= int(seed) < 2**64)
    try:
        cfg = ProtocolConfig(f=0.75, target_rounds=1, seed=seed)
    except ConfigurationError as err:
        assert not in_range and "seed" in str(err), (seed, err)
        return
    assert in_range, seed
    finite_or_rejected(lambda: simulate_batch(cfg, 3))


# two valid configs, one per stopping rule, and hostile values for up to
# three of their fields: the numbers above, bools, a numeric string, None
# and a list
STOPPING = (dict(target_rounds=3, target_fidelity=None),
            dict(target_rounds=None, target_fidelity=0.86))
VALID_CONFIG = dict(f=0.75, p_inconclusive=0.3, seed=1, gate_time=0.41,
                    restore_extra_time=2.3, message_latency=0.37)
NOT_NUMBERS = (True, False, np.bool_(True), "0.75", None, [0.1])
HOSTILE = st.one_of(COUNTS, st.sampled_from(NOT_NUMBERS))
REAL_FIELDS = ("f", "target_fidelity", "p_inconclusive", "gate_time",
               "restore_extra_time", "message_latency")


@QUICK
@given(stopping=st.sampled_from(STOPPING),
       fields=st.dictionaries(
           st.sampled_from([f.name for f in dataclasses.fields(ProtocolConfig)]),
           HOSTILE, max_size=3))
def test_protocol_config(stopping, fields):
    # a TypeError or a warning fails the test; an accepted config holds
    # Python floats and runs to finite statistics
    try:
        cfg = ProtocolConfig(**{**VALID_CONFIG, **stopping, **fields})
    except ConfigurationError:
        return
    assert all(type(getattr(cfg, name)) is float for name in REAL_FIELDS
               if getattr(cfg, name) is not None), cfg
    finite_or_rejected(lambda: simulate_batch(cfg, 2))


def arg(x) -> str:
    """A command-line argument as a user would type it: repr of a float."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def exits_0_or_2(args):
    # the one warning that is meant: a stored pair at or below f = 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BelowThresholdWarning)
        result = CliRunner().invoke(main, [arg(a) for a in args])
    assert result.exit_code in (0, 2), (args, result.output, result.exception)
    if result.exit_code == 0:
        assert not {"nan", "inf", "null"} & set(result.stdout.replace(",", " ").split()), \
            result.stdout


STEPS = st.one_of(st.integers(-1, 6), st.sampled_from(BIG_INTS))


@COMMANDS
@given(f=NUMBERS, fprime=NUMBERS, jt0=NUMBERS, n=st.one_of(st.integers(-1, 3), st.sampled_from(BIG_INTS)),
       at_t=st.booleans(), csv=st.booleans())
def test_round_command(f, fprime, jt0, n, at_t, csv):
    time = ["--at-T", "--n", n] if at_t else ["--jt0", jt0]
    exits_0_or_2(["round", "--f", f, "--fprime", fprime, *time,
                  "--format", "csv" if csv else "json"])


@COMMANDS
@given(panel=st.sampled_from("abc"), f=NUMBERS, f_min=NUMBERS, f_max=NUMBERS,
       f_steps=STEPS, jt_max=NUMBERS, jt_steps=STEPS)
def test_fig5_command(panel, f, f_min, f_max, f_steps, jt_max, jt_steps):
    exits_0_or_2(["fig5", "--panel", panel, "--f", f, "--f-min", f_min,
                  "--f-max", f_max, "--f-steps", f_steps, "--jt-max", jt_max,
                  "--jt-steps", jt_steps])


@COMMANDS
@given(f_min=NUMBERS, f_max=NUMBERS, f_steps=STEPS,
       n_max=st.one_of(st.integers(3, 8), st.sampled_from(BIG_INTS)))
def test_fig6_command(f_min, f_max, f_steps, n_max):
    exits_0_or_2(["fig6", "--f-min", f_min, "--f-max", f_max, "--f-steps", f_steps,
                  "--n-max", n_max])
