"""Mine, export and evaluate FP-Inconsistent filter rules (Section 7).

Generates a corpus with bot and real-user traffic, mines spatial rules,
runs the temporal detector, writes the filter list to ``fp_rules.json``
(the artefact the paper open-sources) and prints the Table 3 / Table 4
improvements plus the real-user true-negative rate.

Run:  python examples/inconsistency_rule_mining.py [scale]
"""

import sys

from repro.analysis import build_corpus
from repro.core import FilterList, FPInconsistentPipeline
from repro.reporting import format_percent, format_table


def main(scale: float = 0.02) -> None:
    corpus = build_corpus(seed=7, scale=scale, include_real_users=True)
    pipeline = FPInconsistentPipeline()
    result = pipeline.run(
        corpus.bot_store,
        real_user_store=corpus.real_user_store,
        check_generalization=True,
    )

    result.filter_list.save("fp_rules.json")
    # The shipped artefact is what an anti-bot service loads (Section 8.3).
    shipped = FilterList.load("fp_rules.json")
    print(f"Mined {len(shipped)} rules -> fp_rules.json\n")

    rates = result.table4
    print(
        format_table(
            ["Rules", "DataDome", "BotD"],
            [
                ("None", format_percent(rates["DataDome"].baseline), format_percent(rates["BotD"].baseline)),
                ("Spatial", format_percent(rates["DataDome"].with_spatial), format_percent(rates["BotD"].with_spatial)),
                ("Temporal", format_percent(rates["DataDome"].with_temporal), format_percent(rates["BotD"].with_temporal)),
                ("Combined", format_percent(rates["DataDome"].with_combined), format_percent(rates["BotD"].with_combined)),
            ],
            title="Table 4 — detection rate under each rule setting",
        )
    )
    print(
        "\nEvasion reduction: DataDome "
        + format_percent(rates["DataDome"].evasion_reduction)
        + ", BotD "
        + format_percent(rates["BotD"].evasion_reduction)
    )
    print(f"Real-user true-negative rate: {format_percent(result.real_user_tnr)}")
    for name, check in (result.generalization or {}).items():
        print(f"80/20 generalisation drop for {name}: {format_percent(check.accuracy_drop)}")

    print("\nPer-service improvement (first 5 rows of Table 3):")
    print(
        format_table(
            ["Service", "DataDome", "+FP-Inc", "BotD", "+FP-Inc"],
            [
                (
                    row.service,
                    format_percent(row.datadome_baseline),
                    format_percent(row.datadome_improved),
                    format_percent(row.botd_baseline),
                    format_percent(row.botd_improved),
                )
                for row in result.table3[:5]
            ],
        )
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
