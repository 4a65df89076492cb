"""The pair loop ``concordance_index`` replaced, kept as its oracle.

Harrell's C-index by definition: for every event record i and every
record j with a later time, count the pair comparable, and concordant
(1) or tied (1/2) by predicted risk.  O(n^2) Python iterations; the
runtime counts the same pairs with blocked NumPy comparisons and must
return the same float, bit for bit.
"""

import numpy as np


def loop_concordance_index(risk, times, events) -> float:
    risk = np.asarray(risk, dtype=np.float64).ravel()
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events, dtype=np.float64).ravel()
    concordant = 0.0
    comparable = 0
    n = len(risk)
    for i in range(n):
        if events[i] != 1:
            continue
        for j in range(n):
            if times[j] > times[i]:
                comparable += 1
                if risk[i] > risk[j]:
                    concordant += 1.0
                elif risk[i] == risk[j]:
                    concordant += 0.5
    if comparable == 0:
        return 0.5
    return concordant / comparable
