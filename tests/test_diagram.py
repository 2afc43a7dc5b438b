import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bettibounds import (
    BettiDiagram,
    DomainError,
    FormatError,
    GapColumnError,
    InvalidSequenceError,
    Poly,
    check_degree_sequence,
    format_rational,
    from_gaps,
    gaps,
    herzog_kuhl,
    koszul,
    parse_rational,
    seq_leq,
)

from helpers import dense_scan, random_sparse_diagram


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


# -- construction and linear structure ----------------------------------------


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


def test_negative_homological_index_rejected():
    with pytest.raises(FormatError):
        BettiDiagram({(-1, 0): 1})


# -- derived statistics --------------------------------------------------------


def test_total_betti_examples():
    assert herzog_kuhl((0, 1, 2, 4)).total(1) == Fraction(8, 3)
    assert herzog_kuhl((0, 1, 2, 3, 5, 6)).total(2) == Fraction(15, 2)
    diagram = BettiDiagram({(0, 0): 1})
    assert diagram.total(5) == 0


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


def test_regularity():
    assert koszul(3).regularity() == 0
    assert BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2}).regularity() == 1
    assert herzog_kuhl((0, 1, 2, 3, 5, 6)).regularity() == 1


def test_hilbert_numerator_examples():
    two_vars = BettiDiagram({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    assert two_vars.hilbert_numerator() == Poly({0: 1, 1: -2, 2: 1})
    generic = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    assert generic.hilbert_numerator() == Poly({0: 2, 1: -3, 3: 1})
    assert not BettiDiagram().hilbert_numerator()


def test_codimension_examples():
    assert koszul(3).codimension() == 3
    generic = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    # 2 - 3t + t^3 = (1-t)^2 (2+t)
    assert generic.codimension() == 2
    assert herzog_kuhl((0, 1, 2, 4)).codimension() == 3


def test_codimension_zero_numerator():
    with pytest.raises(DomainError):
        BettiDiagram({(0, 0): 1, (1, 0): 1}).codimension()


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
        pdim = diagram.projective_dimension()
        assert [diagram.total(i) for i in range(pdim + 1)] == scan["totals"]
        assert diagram.totals() == tuple(scan["totals"])
        assert diagram.regularity() == scan["regularity"]
        if scan["min_degrees"] is None:
            with pytest.raises(GapColumnError):
                diagram.min_degrees()
        else:
            assert diagram.min_degrees() == scan["min_degrees"]
            assert diagram.max_degrees() == scan["max_degrees"]


# -- degree sequences and gaps --------------------------------------------------


def test_seq_leq():
    assert seq_leq((0, 1, 2), (0, 2, 3))
    assert seq_leq((0, 1, 2), (0, 1, 2))
    assert not seq_leq((0, 3, 4), (0, 2, 5))
    with pytest.raises(DomainError):
        seq_leq((0, 1), (0, 1, 2))


def test_gaps_and_from_gaps():
    assert gaps((0, 1, 2, 4)) == (0, 0, 1)
    assert from_gaps((1, 0, 0), 0) == (0, 2, 3, 4)
    with pytest.raises(DomainError):
        from_gaps((-1, 0))
    with pytest.raises(DomainError):
        from_gaps((Fraction(1, 2),))
    with pytest.raises(InvalidSequenceError):
        check_degree_sequence((0, 0, 1))


@given(
    d0=st.integers(-5, 5),
    steps=st.lists(st.integers(0, 6), min_size=0, max_size=7),
)
def test_gaps_round_trip(d0, steps):
    degrees = [d0]
    for step in steps:
        degrees.append(degrees[-1] + 1 + step)
    degrees = tuple(degrees)
    assert from_gaps(gaps(degrees), degrees[0]) == degrees
    assert all(g >= 0 for g in gaps(degrees))


# -- linearity and JSON ----------------------------------------------------------


@given(st.integers(-8, 8), st.integers(1, 9))
def test_hilbert_numerator_linear(num, den):
    scalar = Fraction(num, den)
    first = BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    second = BettiDiagram({(0, -1): 2, (1, 1): Fraction(1, 2), (2, 3): 5})
    combined = first + scalar * second
    scaled = tuple((e, scalar * c) for e, c in second.hilbert_numerator().items())
    assert combined.hilbert_numerator() == Poly(first.hilbert_numerator().items() + scaled)


def test_json_round_trip_and_ordering():
    diagram = BettiDiagram({(1, 1): Fraction(8, 3), (0, 0): 1, (2, 3): Fraction(1, 2)})
    payload = diagram.to_json_dict()
    keys = [(row["i"], row["j"]) for row in payload["entries"]]
    assert keys == sorted(keys)
    assert BettiDiagram.from_json(diagram.to_json()) == diagram


def test_json_input_not_lowest_terms():
    diagram = BettiDiagram.from_json('{"entries": [{"i": 0, "j": 0, "value": "6/4"}]}')
    assert diagram[(0, 0)] == Fraction(3, 2)
    assert diagram.to_json_dict()["entries"][0]["value"] == "3/2"


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


def test_table_rendering():
    text = herzog_kuhl((0, 1, 2, 4)).table()
    lines = text.splitlines()
    assert lines[1].strip().startswith("total:")
    assert "8/3" in lines[1]
    assert lines[-1].strip().startswith("1:")
    assert "." in lines[-1]
    assert BettiDiagram().table() == "(empty Betti diagram)"


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


def test_translate():
    diagram = BettiDiagram({(0, 1): 1, (1, 3): 2})
    shifted = diagram.translate(-1)
    assert shifted == BettiDiagram({(0, 0): 1, (1, 2): 2})
    assert shifted.translate(1) == diagram
