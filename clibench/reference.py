"""A fixed pure-Python job that measures how fast the machine is right now.

The benchmark runs it as a child process next to the program's calls and
scales their wall times by ``REFERENCE_S / (its wall time)``.  It imports
nothing from the program, so no change to the program can move it, while
load from other processes on a shared machine slows it as it slows the
program.  Its work mirrors the program's: integer text parsing, list and
dict building, a bytearray pass, sorting and joining.
"""

import random

N = 120_000

rng = random.Random(0)
values = [rng.randrange(1 << 20) for _ in range(N)]
text = " ".join(map(str, values))
parsed = [int(token) for token in text.split()]
buckets = [[] for _ in range(N)]
for i, x in enumerate(parsed):
    buckets[x % N].append(i)
flags = bytearray(N + 1)
for i in range(N):
    flags[i] = (parsed[i] ^ i) & 3
index = {x: i for i, x in enumerate(parsed)}
parsed.sort()
