"""Host speed probe: a fixed kernel timed next to every measured operation.

The 2-core virtual machine this benchmark was sized on shares its host
with other tenants, and its speed moves between two levels about 1.6x apart in
phases of seconds to minutes (a measured batch of ``optimize_2d`` took
1.6 s in one phase and 2.6 s in the next, with no change in the work
counted).  A run cannot choose its phase, so raw medians from two sets of
runs disagree by more than any useful bound.

``Probe.time()`` runs a fixed mix of the three kinds of work the program
does -- a SuperLU factorization of a shifted 2-D stencil, numpy stencil
and vector passes over a 3-D grid, and interpreted Python -- and returns
its wall time.  It never calls measopt, so no change to the program can
change it.  ``Sampler`` runs the probe every ``INTERVAL_S`` from a timer
signal while operations run, so long operations get samples from inside
them.  ``run.py`` divides each operation's wall time by the mean of the
probe times around and inside it and multiplies by ``REFERENCE_S``, the
probe's time on the reference host state, giving wall seconds at the
reference speed.

The samples inside operations are there for ``state_3d``, whose solves
last seconds and can span a change of speed.  Re-scoring the same runs
with only the sample just before and just after each operation raised
its spread over ten seeds from 5-7% to 14%; on ``optimize_2d`` and
``experiments_cli``, whose operations are short, the two agreed within
a point (see README.md).
"""
from __future__ import annotations

import signal
import time

# the probe's typical time on the 2-core sizing machine; it fixes only the
# scale of the rescaled seconds and must stay constant between commits
REFERENCE_S = 0.017
# seconds between two probes taken inside operations
INTERVAL_S = 0.25


class Probe:
    """The fixed kernel.  numpy and scipy are imported here, not at module
    import, so that importing this module before a set-up is timed does not
    take their import out of the set-up time."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self._np, self._spla = np, spla
        n = 31
        e = np.ones(n)
        a1 = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1], format="csr")
        eye = sp.identity(n, format="csr")
        self.stencil = (sp.kron(a1, eye) + sp.kron(eye, a1)).tocsc()
        self.shift = sp.diags(np.full(n * n, 0.5), format="csc")
        self.rhs = np.linspace(0.0, 1.0, n * n)
        m = 63
        self.cube = np.linspace(-1.0, 1.0, m ** 3).reshape(m, m, m)

    def _sparse(self):
        for _ in range(2):
            self._spla.splu(self.stencil + self.shift).solve(self.rhs)

    def _numpy(self):
        a = self.cube
        for _ in range(2):
            out = 6.0 * a
            for ax in range(3):
                lo = [slice(None)] * 3
                hi = [slice(None)] * 3
                lo[ax] = slice(0, -1)
                hi[ax] = slice(1, None)
                out[tuple(lo)] -= a[tuple(hi)]
                out[tuple(hi)] -= a[tuple(lo)]
            float(self._np.abs(out).sum())
            float(out.ravel() @ a.ravel())

    @staticmethod
    def _python():
        total = 0
        for i in range(50_000):
            total += i % 7
        return total

    def time(self) -> float:
        t0 = time.perf_counter()
        self._sparse()
        self._numpy()
        self._python()
        return time.perf_counter() - t0


class Sampler:
    """Runs ``probe.time()`` every ``INTERVAL_S`` seconds from a SIGALRM
    handler while the ``with`` block runs.

    ``samples`` collects the probe times; ``spent_s`` is the wall time the
    handler took, which the caller subtracts from anything it timed
    meanwhile.  Python runs the handler between bytecodes, so a sample
    falls inside an operation unless it is one long call into C.
    """

    def __init__(self, probe: Probe, samples: list):
        self.probe = probe
        self.samples = samples
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.probe.time())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
