#!/usr/bin/env python3
"""Residue-class level splitting, including the order-16 surprise.

Fix an order k and partition the indices n >= k into classes mod 2**m.
Some classes carry a single valuation (constant), the rest form the
m-level and split again mod 2**(m+1).  The conjectured picture: constants
first appear at level m0-1 (where 2**(m0-1) < k <= 2**m0), and from level
m0 on each level keeps exactly 2**(m0-2) non-constant classes.

Checking instead of trusting pays off: the class-count claim fails at
k = 16, with certificates.  One count of a class's members decides it:
it proves a constant class for every member, and where it fails it has
met a witness pair.
"""

from stirval import (
    build_level_tree,
    c_set_sequence,
    classify_class,
    exceptional_indices,
    k5_surviving_chain,
    ResidueClass,
    verify_main_conjecture,
)


def show_tree(k, m_max):
    tree = build_level_tree(k, m_max)
    print(f"  order {k} (m0 = {tree.m0}):")
    for rec in tree.levels:
        surv = [c.j for c in rec.survivors]
        consts = {c.j: v for c, v in rec.constants}
        print(f"    level {rec.m}: survivors {surv} proved constants {consts}")


def main():
    print("== a constant class and its certificate-bearing sibling ==")
    for j in (1, 0):
        status = classify_class(ResidueClass(5, 2, j))
        if status.kind == "CONSTANT":
            shown = f"value {status.value}"
        else:
            shown = f"witnesses {status.witness_a} and {status.witness_b}"
        print(f"  C(2,{j}) for k=5: {status.kind}, {shown}")

    print("\n== the worked trees ==")
    show_tree(10, 5)
    show_tree(11, 4)

    print("\n== conjecture verdicts, orders 5..20 ==")
    for k in (5, 6, 7, 9, 10, 11, 13, 16, 20):
        report = verify_main_conjecture(k, m_max=8)
        line = f"  k={k:2d}: {report.status}"
        if report.counterexamples:
            first = report.counterexamples[0]
            line += f"  (level {first['m']}: {len(first['survivors'])} survivors, expected {first['expected']})"
        print(line)
    print("  -> at k=16 six classes per level survive with witness pairs;")
    print("     the predicted count 2^(m0-2) = 4 is refuted, not just missed.")

    print("\n== the k=5 chain ==")
    chain = k5_surviving_chain(10)
    print("  level: survivor j (sibling constant)")
    for link in chain:
        print(f"   {link.level:4d}: {link.j:4d}  ({link.sibling_value})")
    print(f"  index sequence read off the chain: {c_set_sequence(9)}")

    print("\n== exceptional indices ==")
    scan = exceptional_indices(200).details
    print(f"  {scan['indices']}  matches 32j+7: {scan['pattern']}")


if __name__ == "__main__":
    main()
