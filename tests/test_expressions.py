import pytest

from ordseq.errors import ParseError, SizeLimitError, UnsupportedOrderError
from ordseq.expressions import parse_group
from ordseq.groups import alternating, cyclic
from ordseq.sequences import order_sequence


@pytest.mark.parametrize(
    "text,size",
    [
        ("C6", 6),
        ("D12", 12),
        ("Dic12", 12),
        ("Dic3", 12),
        ("Q8", 8),
        ("Q16", 16),
        ("S4", 24),
        ("A5", 60),
        ("S1", 1),
        ("A1", 1),
        ("A2", 1),
        ("M16", 16),
        ("SD16", 16),
        ("F20", 20),
        ("F21", 21),
        ("Heis(3)", 27),
        ("Aff(2,2,3)", 12),
        ("Ab(2,4,8)", 64),
        ("C2xC3", 6),
        ("C2 x C3", 6),
        ("C2xC2xC5", 20),
        ("Ab(2,2)xD8", 32),
        ("Cat(16,(C2xC2):C4)", 16),
        ("Cat(16,D8*C4)", 16),
        ("Cat(6,S3)", 6),
    ],
)
def test_parse_sizes(text, size):
    assert parse_group(text).size == size


def test_parsed_groups_behave():
    assert order_sequence(parse_group("C2xC3")) == order_sequence(cyclic(6))
    assert order_sequence(parse_group("Aff(2,2,3)")) == order_sequence(alternating(4))
    assert parse_group("D12").name == "D12"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "C",
        "X5",
        "C6)",
        "C6 C7",
        "C6x",
        "D7",
        "C0",
        "Ab()",
        "Ab(2,)",
        "Aff(2,2)",
        "Cat(16)",
        "Heis3",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_group(text)


def test_catalog_reference_errors():
    with pytest.raises(UnsupportedOrderError):
        parse_group("Cat(16,nope)")


def test_size_limit_applies_before_building():
    with pytest.raises(SizeLimitError):
        parse_group("S8", max_size=25000)
    with pytest.raises(SizeLimitError):
        parse_group("C7", max_size=6)
    with pytest.raises(SizeLimitError):
        parse_group("PSL34", max_size=20159)
    # products are sized by the product of the factors
    with pytest.raises(SizeLimitError):
        parse_group("C10xC10", max_size=99)


def test_no_cap_by_default():
    # the parser itself imposes no cap; the group framework caps at 25000
    assert parse_group("C24000").size == 24000
    with pytest.raises(SizeLimitError):
        parse_group("C30000")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("Aff(2,15000,3)", id="Aff-2-15000-3"),
        pytest.param(f"Ab({'9' * 3000},{'9' * 3000})", id="Ab-3000-digit-moduli"),
    ],
)
def test_huge_sizes_without_a_cap_are_refused(default_int_str_limit, text):
    # the refusal names the cap, never the order, which has too many digits to print
    with pytest.raises(SizeLimitError, match="exceeds the cap of"):
        parse_group(text)
