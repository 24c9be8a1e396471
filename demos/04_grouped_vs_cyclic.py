#!/usr/bin/env python3
"""A non-cyclic data placement that halves the cyclic scheme's download.

At 12 datasets, 4 workers, any-3 recovery, and 3 requested combinations, the
cyclic placement cannot do better than 9 downloaded symbol blocks.  Grouping
datasets by worker pairs and letting each surviving pair cooperatively form
one combination gets the same job done with 6.
"""

from linsep import builder, codec, field
from linsep.assignment import cyclic_assignment, grouped_assignment

f = field.Field()
demand = builder.demand_from_rows(
    f,
    [
        [1] * 12,
        list(range(1, 13)),
        [1, 0, 3, 2, 8, 4, 1, 2, 9, 4, 5, 10],
    ],
)

grouped = grouped_assignment(12, 4, 3)
print("pair -> datasets owned by exactly that pair:")
for pair, members in grouped.groups:
    print(f"  workers {pair}: datasets {members}")

scheme_grouped = builder.build_grouped(demand, grouped)
scheme_cyclic = builder.build_scheme(demand, cyclic_assignment(12, 4, 3))

messages = codec.random_messages(12, 4, f, seed=7)
truth = field.mat_mul(demand.matrix, messages.w)

for name, scheme in (("cyclic", scheme_cyclic), ("grouped", scheme_grouped)):
    costs = set()
    for trio in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
        answers = [codec.encode_worker(scheme, n, messages) for n in trio]
        report = codec.decode(scheme, answers)
        assert report.success and report.recovered == truth
        costs.add(report.cost)
    print(f"{name:>8}: every 3-of-4 subset decodes, download cost {costs.pop()}")

print("same recovery guarantee, two-thirds the traffic")
