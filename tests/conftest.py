"""Test-session set-up shared by every test module."""

from hypothesis.vendor.pretty import for_type_by_name


def _pretty_table(welfare, p, cycle):
    """Print a TabulatedWelfare as the call that builds it from base sets.

    Hypothesis prints a dataclass by its init fields, and ``entries`` is an
    init-only variable the instance never stores; a failing example would
    end in an AttributeError instead of showing its table."""
    m = welfare.num_resources
    table = {
        frozenset(r for r in range(m) if mask >> r & 1): value
        for mask, value in sorted(welfare.table.items())
    }
    with p.group(len("TabulatedWelfare.from_mapping("), "TabulatedWelfare.from_mapping(", ")"):
        p.pretty(table)
        p.text(",")
        p.breakable()
        p.pretty(m)


for_type_by_name("anarchy_lab.game", "TabulatedWelfare", _pretty_table)
