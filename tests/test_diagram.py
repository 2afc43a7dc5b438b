import json
import math
import random
from fractions import Fraction

import pytest

from bettibounds import (
    BettiDiagram,
    DomainError,
    FormatError,
    GapColumnError,
    format_rational,
    herzog_kuhl,
    parse_rational,
)

from helpers import (
    NOT_EXACT_IDS,
    NOT_EXACT_VALUES,
    dense_scan,
    koszul,
    pure_sum,
    random_chain,
    random_sparse_diagram,
)


# -- rational wire format ----------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("8/3") == Fraction(8, 3)
    assert parse_rational("-5") == -5
    assert parse_rational("6/4") == Fraction(3, 2)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "1/-2", "", "x", "1/2/3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_format_rational_lowest_terms():
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(-12) == "-12"
    assert format_rational(Fraction(-10, 4)) == "-5/2"
    assert format_rational(Fraction(0, 7)) == "0"


def test_format_rational_refuses_a_value_beyond_the_digit_limit():
    with pytest.raises(DomainError, match="the interpreter's limit for printing an integer"):
        format_rational(Fraction(10**5000, 3))


@pytest.mark.parametrize("value", NOT_EXACT_VALUES, ids=NOT_EXACT_IDS)
def test_format_rational_refuses_values_other_than_int_and_fraction(value):
    with pytest.raises(FormatError) as excinfo:
        format_rational(value)
    assert str(excinfo.value) == f"value must be an int or a Fraction, got {type(value).__name__}"


# -- construction and linear structure ----------------------------------------


def test_values_are_stored_as_fractions_and_repeated_keys_add():
    diagram = BettiDiagram([((0, 0), 1), ((0, 0), Fraction(1, 2)), ((1, 1), 2), ((1, 1), -2)])
    assert diagram.items() == (((0, 0), Fraction(3, 2)),)
    assert all(type(value) is Fraction for _, value in BettiDiagram({(0, 0): 7}).items())


@pytest.mark.parametrize("value", NOT_EXACT_VALUES, ids=NOT_EXACT_IDS)
def test_values_other_than_int_and_fraction_are_refused(value):
    with pytest.raises(FormatError) as excinfo:
        BettiDiagram({(0, 0): value})
    assert str(excinfo.value) == (
        f"diagram value must be an int or a Fraction, got {type(value).__name__}"
    )


def test_zero_entries_are_pruned():
    diagram = BettiDiagram({(0, 0): 1, (1, 1): 0})
    assert len(diagram) == 1
    assert diagram[(1, 1)] == 0


def test_add_identity_and_scale_annihilator():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): Fraction(1, 3)})
    assert diagram + BettiDiagram() == diagram
    assert 0 * diagram == BettiDiagram()


def test_scale_pure_013():
    # Herzog-Kuhl by hand: totals of (0,1,3) are (1, 3/2, 1/2)
    pure = herzog_kuhl((0, 1, 3))
    assert pure == BettiDiagram({(0, 0): 1, (1, 1): Fraction(3, 2), (2, 3): Fraction(1, 2)})
    assert 2 * pure == BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})


@pytest.mark.parametrize("scalar", [True, False, 1.0, 0.0], ids=["true", "false", "float", "float-zero"])
def test_scaling_refuses_scalars_that_are_not_int_or_fraction(scalar):
    # the same exact types the constructor admits: bool is an int, float a binary fraction
    diagram = BettiDiagram({(0, 0): 3})
    with pytest.raises(TypeError):
        scalar * diagram
    with pytest.raises(TypeError):
        diagram * scalar


@pytest.mark.parametrize(
    "scalar, expected",
    [(2, {(0, 0): 6}), (0, {}), (Fraction(2, 3), {(0, 0): 2}), (Fraction(0), {})],
    ids=["int", "int-zero", "fraction", "fraction-zero"],
)
def test_scaling_by_int_or_fraction(scalar, expected):
    diagram = BettiDiagram({(0, 0): 3})
    assert scalar * diagram == diagram * scalar == BettiDiagram(expected)


def test_negative_homological_index_rejected():
    with pytest.raises(FormatError):
        BettiDiagram({(-1, 0): 1})


# -- derived statistics --------------------------------------------------------


def test_total_betti_examples():
    assert herzog_kuhl((0, 1, 2, 4)).totals()[1] == Fraction(8, 3)
    assert herzog_kuhl((0, 1, 2, 3, 5, 6)).totals()[2] == Fraction(15, 2)
    diagram = BettiDiagram({(0, 0): 1})
    assert diagram.totals() == (1,)  # no column past the projective dimension


def test_min_max_degrees():
    diagram = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    assert diagram.min_degrees() == (0, 1, 3)
    assert diagram.max_degrees() == (0, 1, 3)
    quotient = BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    assert quotient.min_degrees() == (0, 2, 3)
    assert BettiDiagram({(0, 0): 1}).min_degrees() == (0,)


def test_min_degrees_errors():
    with pytest.raises(DomainError):
        BettiDiagram().min_degrees()
    with pytest.raises(GapColumnError):
        BettiDiagram({(0, 0): 1, (2, 3): 1}).min_degrees()


@pytest.mark.parametrize("statistic", ["projective_dimension", "regularity"])
def test_the_empty_diagram_has_no_statistic(statistic):
    with pytest.raises(DomainError, match=f"^empty diagram has no {statistic.replace('_', ' ')}$"):
        getattr(BettiDiagram(), statistic)()


def test_regularity():
    assert koszul(3).regularity() == 0
    assert BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2}).regularity() == 1
    assert herzog_kuhl((0, 1, 2, 3, 5, 6)).regularity() == 1


def test_codimension_examples():
    assert koszul(3).codimension() == 3
    generic = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    # 2 - 3t + t^3 = (1-t)^2 (2+t)
    assert generic.codimension() == 2
    assert herzog_kuhl((0, 1, 2, 4)).codimension() == 3
    # (1 - t)^2 (1 - t^huge): the degrees' gcd is 1, so no dense table could hold it
    huge = 10**11
    spread = {(0, 0): 1, (1, 1): 2, (2, 2): 1, (1, huge): 1, (2, huge + 1): 2, (3, huge + 2): 1}
    assert BettiDiagram(spread).codimension() == 3


def test_codimension_zero_numerator():
    # columns 0 and 1 cancel in degree 0; the empty diagram has no terms at all
    for diagram in (BettiDiagram({(0, 0): 1, (1, 0): 1}), BettiDiagram()):
        with pytest.raises(DomainError, match="^Hilbert numerator is identically zero$"):
            diagram.codimension()


def test_random_sparse_diagram_refuses_more_entries_than_cells():
    # one row and one column leave 3 cells to draw keys from
    with pytest.raises(ValueError):
        random_sparse_diagram(random.Random(0), max_i=0, max_j=0, entries=5)
    assert len(random_sparse_diagram(random.Random(0), max_i=0, max_j=0, entries=3)) == 3


def test_stats_match_dense_scan():
    rng = random.Random(20240311)
    for _ in range(25):
        diagram = random_sparse_diagram(rng)
        scan = dense_scan(diagram)
        assert diagram.totals() == tuple(scan["totals"])
        assert diagram.regularity() == scan["regularity"]
        if scan["codimension"] is None:
            with pytest.raises(DomainError):
                diagram.codimension()
        else:
            assert diagram.codimension() == scan["codimension"]
        if scan["min_degrees"] is None:
            with pytest.raises(GapColumnError):
                diagram.min_degrees()
        else:
            assert diagram.min_degrees() == scan["min_degrees"]
            assert diagram.max_degrees() == scan["max_degrees"]


def test_codimension_and_totals_match_dense_division_at_known_orders():
    rng = random.Random(20261020)
    huge = 10**11
    # the order never exceeds the number of terms minus one, and (1 - t)^n reaches it
    known = [(koszul(n), n) for n in range(1, 9)]
    # t^-1 (1 - t): a unit t^a leaves the order at t = 1 alone
    known.append((BettiDiagram({(0, -1): 1, (1, 0): 1}), 1))
    # 1/3 t^-huge + 2/7 t^huge, nonzero at t = 1 however far apart its terms are
    known.append((BettiDiagram({(0, -huge): Fraction(1, 3), (0, huge): Fraction(2, 7)}), 0))
    # 1 - t^huge, the spread `check-beh` reads, and (1 - t^huge)^3, a Koszul complex spread out
    known.append((BettiDiagram({(0, 0): 1, (1, huge): 1}), 1))
    known.append((BettiDiagram({(i, i * huge): math.comb(3, i) for i in range(4)}), 3))
    for _ in range(12):
        # a positive sum of pure diagrams of length s + 1 has codimension s; Fraction
        # coefficients of unlike denominators, at negative degrees, mix the denominators
        s = rng.randint(1, 5)
        shift = -rng.randint(1, 6)
        chain = random_chain(rng, s, rng.randint(2, 4))
        terms = [
            (Fraction(rng.randint(1, 9), rng.choice((2, 3, 5, 12))), tuple(d + shift for d in degrees))
            for degrees in chain
        ]
        known.append((pure_sum(terms), s))
    known.append((pure_sum([(Fraction(-2, 7), (-3, -1, 2, 3))]), 3))
    for diagram, order in known:
        scan = dense_scan(diagram)
        assert diagram.codimension() == scan["codimension"] == order
        assert diagram.totals() == tuple(scan["totals"])


# -- JSON ------------------------------------------------------------------------


def test_json_round_trip_and_ordering():
    diagram = BettiDiagram({(1, 1): Fraction(8, 3), (0, 0): 1, (2, 3): Fraction(1, 2)})
    payload = json.loads(diagram.to_json())
    keys = [(row["i"], row["j"]) for row in payload["entries"]]
    assert keys == sorted(keys)
    assert BettiDiagram.from_json(diagram.to_json()) == diagram


def test_json_input_not_lowest_terms():
    diagram = BettiDiagram.from_json('{"entries": [{"i": 0, "j": 0, "value": "6/4"}]}')
    assert diagram[(0, 0)] == Fraction(3, 2)
    assert json.loads(diagram.to_json())["entries"][0]["value"] == "3/2"


def test_json_rejects_duplicates_and_shape():
    with pytest.raises(FormatError):
        BettiDiagram.from_json('{"entries": [{"i":0,"j":0,"value":"1"},{"i":0,"j":0,"value":"2"}]}')
    with pytest.raises(FormatError):
        BettiDiagram.from_json('{"rows": []}')
    with pytest.raises(FormatError):
        BettiDiagram.from_json("not json")


def test_json_rejects_boolean_indices():
    with pytest.raises(FormatError):
        BettiDiagram.from_json('{"entries": [{"i": false, "j": true, "value": "1"}]}')


def test_constructor_rejects_boolean_keys():
    with pytest.raises(FormatError):
        BettiDiagram({(False, True): 1})
    with pytest.raises(FormatError):
        BettiDiagram({(0, True): 1})


@pytest.mark.parametrize("key", [(0,), (0, 0, 0), 5], ids=["one", "three", "int"])
def test_constructor_refuses_keys_that_are_not_pairs(key):
    with pytest.raises(FormatError) as excinfo:
        BettiDiagram({key: 1})
    assert str(excinfo.value) == f"diagram key must be a pair of integers, got {key!r}"


def test_table_is_limited_in_columns_too():
    with pytest.raises(DomainError, match="would have 1000001 columns"):
        BettiDiagram({(0, 0): 1, (10**6, 10**6): 1}).table()
    with pytest.raises(DomainError, match="would have 100000000000000000001 columns"):
        BettiDiagram({(0, 0): 1, (10**20, 10**20): 1}).table()
    # exactly MAX_TABLE_ROWS columns, all in row 0, still print
    lines = BettiDiagram({(0, 0): 1, (9999, 9999): 1}).table().splitlines()
    assert len(lines) == 3
    assert lines[0].split()[-1] == "9999"
    assert lines[2].split()[:3] == ["0:", "1", "."]


def test_json_reader_leaves_the_index_check_to_the_constructor():
    for index in ("1.5", '"0"', "[0]", "{}", "null"):
        with pytest.raises(FormatError, match="diagram key must be a pair of integers"):
            BettiDiagram.from_json(f'{{"entries": [{{"i": {index}, "j": 0, "value": "1"}}]}}')
