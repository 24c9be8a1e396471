#!/usr/bin/env python3
"""Smallest interesting pipeline: 3 workers, any 2 answers suffice.

The master wants two different linear combinations of three messages, each
worker may hold only two of the three datasets, and one worker may never
answer.  Each worker still sends just one combination.
"""

from linsep import builder, codec, field
from linsep.assignment import cyclic_assignment

f = field.Field()  # prime modulus 2**31 - 1

# What the master wants: W1 + W2 + W3 and W1 + 2 W2 + 3 W3.
demand = builder.demand_from_rows(f, [[1, 1, 1], [1, 2, 3]])

# Datasets go to workers cyclically; every dataset lives on exactly 2 workers.
assignment = cyclic_assignment(K=3, N=3, N_r=2)
print("datasets per worker:", [list(z) for z in assignment.z])

scheme = builder.build_scheme(demand, assignment)
for n in range(1, 4):
    print(f"worker {n} sends the combination {scheme.encoder(n).to_lists()[0]}")

# Messages are symbol blocks; here one symbol each, W = (1, 2, 3).
messages = codec.MessageBlock(field.from_rows(f, [[1], [2], [3]]))
truth = field.mat_mul(demand.matrix, messages.w)
print("true task values:", [row[0] for row in truth.to_lists()])

# Worker 3 straggles: decode from workers 1 and 2 alone.
answers = [codec.encode_worker(scheme, n, messages) for n in (1, 2)]
report = codec.decode(scheme, answers)
print("decoded from {1,2}:", [row[0] for row in report.recovered.to_lists()])
print("downloaded symbols per message symbol:", report.cost)

# Any other pair works identically.
for pair in ((1, 3), (2, 3)):
    answers = [codec.encode_worker(scheme, n, messages) for n in pair]
    assert codec.decode(scheme, answers).recovered == truth
print("every 2-of-3 subset recovers both combinations exactly")
