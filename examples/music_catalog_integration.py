"""Scenario: integrating a curated music catalog with a messy Web KB.

This is the paper's BBCmusic-DBpedia regime: the second KB has an order
of magnitude more attributes, 3-4x more tokens per entity, differently
formatted literals, and a deceptively important identifier attribute.
Value-only matching struggles here; MinoanER's composite evidence
(names discovered from statistics + values + neighbors) does not.

The script compares MinoanER against the fine-tuned value-only BSL
baseline on this regime and breaks MinoanER's result down by rule.

Run:  python examples/music_catalog_integration.py
"""

from repro import MinoanER, MinoanERConfig
from repro.baselines import BSLBaseline
from repro.datasets import load_profile
from repro.evaluation.metrics import evaluate_matches


def main() -> None:
    # A scaled-down instance keeps this example snappy (~20s in total).
    pair = load_profile("bbc_dbpedia", n_matches=400, extras1=150, extras2=1100)
    print(f"Dataset: {pair}")
    print(f"  KB1 attributes: {len(pair.kb1.attribute_names())}")
    print(f"  KB2 attributes: {len(pair.kb2.attribute_names())}")
    print(f"  avg tokens/entity: {pair.kb1.average_tokens_per_entity():.1f} vs "
          f"{pair.kb2.average_tokens_per_entity():.1f}")

    # -- MinoanER, fully automatic, default configuration -------------
    result = MinoanER().resolve(pair.kb1, pair.kb2)
    report = result.evaluate(pair.ground_truth)
    print(f"\nMinoanER: {report}")
    for rule in ("R1", "R2", "R3"):
        pairs = result.matching.matches_by_rule(rule)
        correct = len(pairs & pair.ground_truth)
        print(f"  {rule}: {len(pairs):4d} matches ({correct} correct)")
    # R3 never proposes from a KB2 entity no KB1 entity points at (R4
    # would drop it), so this counts the proposals R4 actually saw.
    print(f"  removed by reciprocity (R4): {len(result.matching.removed_by_reciprocity)}")

    # -- The k = 1 trap ------------------------------------------------
    # With only one name attribute per KB, the statistics pick the
    # messy KB's identifier attribute, and the name rule goes blind.
    trapped = MinoanER(MinoanERConfig(name_attributes_k=1)).resolve(pair.kb1, pair.kb2)
    print(f"\nWith k=1 name attributes: {trapped.evaluate(pair.ground_truth)}")
    print("  (the decoy identifier attribute hijacks name discovery; k=2 recovers)")

    # -- Fine-tuned value-only baseline --------------------------------
    bsl = BSLBaseline().run(pair.kb1, pair.kb2, pair.ground_truth)
    bsl_report = evaluate_matches(bsl.best_matches, pair.ground_truth)
    print(f"\nBSL (best of {bsl.configurations_tried} configs, tuned on the gold "
          f"standard): {bsl_report}")
    print(f"  winning configuration: {bsl.best_config.label()}")
    print(f"\nMinoanER beats the tuned value-only grid by "
          f"{(report.f1 - bsl_report.f1) * 100:.1f} F1 points on this regime.")


if __name__ == "__main__":
    main()
