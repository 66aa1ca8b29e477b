"""The reference operation and the shared parts of the in-process workloads.

The reference is fixed, stdlib-only work: a Fraction Gauss-Jordan inverse
of a fixed 8x8 integer matrix.  It never changes between commits and, like
k3fm's library code, it is interpreted Python spending its time on Fraction
arithmetic, small-int products and list building.  Timing it next to each
operation measures the machine's current speed, so dividing by it cancels
drift.  A sample runs it a few times back to back, so that it averages
over the fast and slow states this machine switches between within
milliseconds, as a long operation does.
"""

import resource
from fractions import Fraction
from time import perf_counter_ns

N = 8
MATRIX = tuple(
    tuple(((3 * i + 5 * j) % 7) - 3 + (9 if i == j else 0) for j in range(N)) for i in range(N)
)


def gauss_jordan_inverse(m):
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


class InProcess:
    """Reference, warm-up, tracing and memory for workloads that call k3fm directly.

    Subclasses set REF_REPS and define warm_up_cases, round, run and check.
    """

    REF_REPS = 1

    def __init__(self, k3fm, rng, workdir):
        self.k3fm = k3fm
        self.rng = rng
        self.tracer = None

    def warm_up(self):
        """Run without checking: a wrong result shows in the measured loop as correct: false."""
        for case in self.warm_up_cases():
            self.run(case)

    def reference(self) -> float:
        """Mean wall time of one reference operation over REF_REPS runs, in ns."""
        start = perf_counter_ns()
        for _ in range(self.REF_REPS):
            gauss_jordan_inverse(MATRIX)
        return (perf_counter_ns() - start) / self.REF_REPS

    def start_tracing(self):
        from tracing import Tracer

        self.tracer = Tracer()
        self.tracer.install()

    def take_layers(self):
        return self.tracer.take()

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
