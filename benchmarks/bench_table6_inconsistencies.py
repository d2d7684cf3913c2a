"""Table 6 — example spatial inconsistencies mined per attribute group."""

from repro.core.detector import FPInconsistent
from repro.reporting.tables import format_table


def bench_table6_mined_rules(benchmark, bot_store):
    detector = benchmark.pedantic(FPInconsistent().fit, args=(bot_store,), rounds=1, iterations=1)
    filter_list = detector.filter_list
    print()
    rows = []
    for category, rules in filter_list.by_category().items():
        top = sorted(rules, key=lambda r: r.support, reverse=True)[:5]
        for rule in top:
            rows.append((category.value, f"({rule.attribute_a.value}, {rule.attribute_b.value})", f"({rule.value_a}, {rule.value_b})", rule.support))
    print(format_table(["Group", "Attributes", "Example", "Support"], rows, title=f"Table 6 — {len(filter_list)} mined inconsistency rules"))
    assert len(filter_list) > 20
