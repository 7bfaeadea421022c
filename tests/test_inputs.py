"""One table per kind of input: every call that reads a whole number, and every call that
reads a real number or a weight.  Each row refuses the same bad values, and every value of
another number type that equals the row's reference value gives the reference's result.
A new entry point joins by adding one row."""

from decimal import Decimal
from fractions import Fraction
import math

import numpy as np
import pytest

from hsmc import (MomentQuery, build_microcanonical_hamiltonian, build_spectrum,
                  canonical_profile, compose, gas_state_chunks, hypersphere_moment,
                  hypersphere_moment_mc, lubkin_average, mc_average, microcanonical_profile,
                  page_entropy, product_state, sample_chunks, sample_gas_states, substream)
from hsmc.sampling import _check_keys
from hsmc.spectrum import _whole
from hsmc.state import checked_weights

GAS = build_spectrum([(0, 2), (1, 2)])
CONTAINER = build_spectrum([(0, 3), (1, 3)])
COMP = compose(GAS, CONTAINER)
FOUR = build_spectrum([(k, 1) for k in range(4)])
COMP4 = compose(FOUR, FOUR)  # levels 0 to 3 on either side
MICRO = microcanonical_profile({(0, 0): 0.5, (1, 1): 0.5})

# each was once read as another number, or raised TypeError or OverflowError
BAD_WHOLE = [1.5, True, np.True_, "3", math.nan, math.inf, None, 1 + 0j]
WHOLE = [3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0), Fraction(3)]


def _bytes(chunks):
    return b"".join(np.asarray(chunk).tobytes() for chunk in chunks)


def _moment(query):
    return hypersphere_moment(query), hypersphere_moment_mc(query, 8, 1)


def _purities(amplitudes):
    return np.sum(np.abs(amplitudes) ** 2, axis=1)


# name -> (call of one whole value, the exception a bad value raises, bad values it reads)
WHOLE_CALLS = {
    "substream seed": (lambda x: substream(x, 0).standard_normal(4).tobytes(), ValueError, ()),
    "substream index": (lambda x: substream(1, x).standard_normal(4).tobytes(), ValueError, ()),
    "sample_chunks seed": (lambda x: _bytes(sample_chunks(COMP, MICRO, x, 0, 2)), ValueError, ()),
    "sample_chunks start": (lambda x: _bytes(sample_chunks(COMP, MICRO, 1, x, 2)), ValueError, ()),
    "sample_chunks count": (lambda x: _bytes(sample_chunks(COMP, MICRO, 1, 0, x)), ValueError, ()),
    "gas_state_chunks seed": (lambda x: _bytes(gas_state_chunks(COMP, MICRO, x, 0, 2)),
                              ValueError, ()),
    "gas_state_chunks start": (lambda x: _bytes(gas_state_chunks(COMP, MICRO, 1, x, 2)),
                               ValueError, ()),
    "gas_state_chunks count": (lambda x: _bytes(gas_state_chunks(COMP, MICRO, 1, 0, x)),
                               ValueError, ()),
    "sample_gas_states seed": (lambda x: _bytes(sample_gas_states(COMP, MICRO, x, 0, 2)),
                               ValueError, ()),
    "sample_gas_states start": (lambda x: _bytes(sample_gas_states(COMP, MICRO, 1, x, 2)),
                                ValueError, ()),
    "sample_gas_states count": (lambda x: _bytes(sample_gas_states(COMP, MICRO, 1, 0, x)),
                                ValueError, ()),
    "mc_average n": (lambda x: mc_average(_purities, COMP, MICRO, x, 1), ValueError, ()),
    "mc_average seed": (lambda x: mc_average(_purities, COMP, MICRO, 4, x), ValueError, ()),
    "hypersphere_moment_mc n": (
        lambda x: hypersphere_moment_mc(MomentQuery(1.0, 4, 0, 2), x, 1), ValueError, ()),
    "hypersphere_moment_mc seed": (
        lambda x: hypersphere_moment_mc(MomentQuery(1.0, 4, 0, 2), 8, x), ValueError, ()),
    "lubkin_average n_gas": (lambda x: lubkin_average(x, 4), ValueError, ()),
    "lubkin_average n_container": (lambda x: lubkin_average(4, x), ValueError, ()),
    "page_entropy m": (lambda x: page_entropy(x, 4), ValueError, ()),
    "page_entropy n": (lambda x: page_entropy(4, x), ValueError, ()),
    "MomentQuery d": (lambda x: _moment(MomentQuery(1.0, x, 0, 2)), ValueError, ()),
    "MomentQuery u_l": (lambda x: _moment(MomentQuery(1.0, 4, x, 1)), ValueError, ()),
    "MomentQuery u_m": (lambda x: _moment(MomentQuery(1.0, 4, 2, x)), ValueError, ()),
    # a composite lookup names no subspace with a KeyError
    "subspace_index A": (lambda x: COMP4.subspace_index(x, 1), KeyError, ()),
    "subspace_index B": (lambda x: COMP4.subspace_index(1, x), KeyError, ()),
    "microcanonical key": (lambda x: microcanonical_profile({(x, 1): 1.0}).resolve(COMP4).tobytes(),
                           KeyError, ()),
    # a config holds the text of an integer, which build_spectrum reads
    "build_spectrum degeneracy": (lambda x: build_spectrum([(0.0, x)]), ValueError, ("3",)),
}


@pytest.mark.parametrize("name", WHOLE_CALLS)
def test_every_call_that_reads_a_whole_number_refuses_the_same_values(name):
    call, error, read = WHOLE_CALLS[name]
    want = call(3)
    for value in WHOLE + list(read):
        assert call(value) == want, value
    for value in BAD_WHOLE:
        if value not in read:
            with pytest.raises(error):
                call(value)


def test_no_fractional_or_truth_value_key_runs_another_keys_stream():
    # each of these once drew seed 1's or seed 2's stream, returned a number or raised
    # TypeError or OverflowError
    query = MomentQuery(1.0, 4, 0, 2)
    for call in (lambda: substream(1.5, 0), lambda: substream(True, 0), lambda: substream(1, 0.5),
                 lambda: mc_average(_purities, COMP, MICRO, 10, 2.5),
                 lambda: mc_average(_purities, COMP, MICRO, 10.5, 1),
                 lambda: hypersphere_moment_mc(query, 10, 1.5),
                 lambda: hypersphere_moment_mc(query, 10.5, 1),
                 lambda: sample_chunks(COMP, MICRO, 1, 0.5, 2),
                 lambda: lubkin_average(np.True_, 4), lambda: page_entropy(np.True_, 4),
                 lambda: lubkin_average("3", 4), lambda: MomentQuery(1.0, "4", 0, 2),
                 lambda: MomentQuery(1.0, np.True_, 0, 0)):
        with pytest.raises(ValueError):
            call()


def test_whole_is_the_one_rule():
    for value in WHOLE + [np.uint64(3), Decimal("3.0"), np.array(3)]:
        got = _whole(value)
        assert got == 3 and type(got) is int, value
    for value in BAD_WHOLE + [np.float64(math.nan), Fraction(7, 2), Decimal("NaN"),
                              Decimal("2.5"), np.complex128(3), np.str_("3"), b"3", [3]]:
        assert _whole(value) is None, value
    assert _check_keys(np.uint64(2**64 - 1), np.int64(2**62), 2**62) == (2**64 - 1, 2**62, 2**62)
    assert substream(np.uint64(7), np.int64(2)).standard_normal(8).tobytes() == (
        substream(7, 2).standard_normal(8).tobytes())


def test_a_seed_of_another_type_labels_the_estimate_with_its_int():
    estimate = mc_average(_purities, COMP, MICRO, 4, np.float32(3.0))
    assert estimate.seed == 3 and type(estimate.seed) is int
    assert type(MomentQuery(1.0, np.uint8(4), Fraction(2), np.float32(0.0)).d) is int


# ------------------------------------------------------------------ real numbers, weights

# truth values and text are refused wherever a library call reads a real number or a weight;
# a config's text is read by config._number before it gets there
BAD_REAL = [True, np.True_, "1", math.nan, None, 1 + 0j]
REAL = [1.0, 1, np.float64(1.0), np.float32(1.0), np.int64(1), Fraction(1), Decimal("1")]


def _hamiltonian(coupling):
    h = build_microcanonical_hamiltonian(COMP, coupling, substream(5, 0))
    return b"".join(b.energies.tobytes() + b.vectors.tobytes() for b in h.blocks)


# name -> (call of one real value, bad values it reads)
REAL_CALLS = {
    "checked_weights": (lambda x: checked_weights([x, 0.0], 2, "w").tobytes(), ()),
    "checked_weights of an array": (
        lambda x: checked_weights(np.array([x, 0.0], dtype=object), 2, "w").tobytes(), ()),
    "canonical weight": (lambda x: canonical_profile({0.0: x}).resolve(COMP).tobytes(), ()),
    "product_state gas weights": (
        lambda x: product_state(COMP, [x, 0.0], [0.5, 0.5]).amplitudes.tobytes(), ()),
    "product_state container weights": (
        lambda x: product_state(COMP, [0.5, 0.5], [0.0, x]).amplitudes.tobytes(), ()),
    "compose shell_tolerance": (lambda x: compose(GAS, CONTAINER, x).shell_energies.tobytes(), ()),
    "coupling": (_hamiltonian, ()),
    "MomentQuery R": (lambda x: _moment(MomentQuery(x, 4, 0, 2)), ()),
    # a config holds the text of a number, which build_spectrum reads
    "build_spectrum energy": (lambda x: build_spectrum([(x, 1)]), ("1",)),
}


@pytest.mark.parametrize("name", REAL_CALLS)
def test_every_call_that_reads_a_real_number_refuses_truth_values_and_text(name):
    call, read = REAL_CALLS[name]
    want = call(1.0)
    for value in REAL + list(read):
        assert call(value) == want, value
    for value in BAD_REAL:
        if value not in read:
            with pytest.raises((ValueError, TypeError)) as caught:
                call(value)
            # the values a call once read as a number are refused with a ValueError
            if value is not None and not isinstance(value, complex):
                assert caught.type is ValueError, value


def test_a_truth_value_hidden_among_floats_is_refused():
    # np.asarray([True, 0.5]) is a float array: the items of a list are looked at
    for weights in ([True, 0.0], [0.5, np.True_, -0.5 + 0.5], ["0.5", 0.5], [0.5 + 0j, 0.5]):
        with pytest.raises(ValueError, match="real numbers"):
            checked_weights(weights, len(weights), "w")
    for weights in (np.array([True, False]), np.array(["0.5", "0.5"]), np.array([0.5 + 0j, 0.5])):
        with pytest.raises(ValueError, match="real numbers"):
            checked_weights(weights, 2, "w")
