"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures, prints it
(run with ``-s`` to see the artifacts), and asserts the paper's *shape* —
who wins, by roughly what factor, where crossovers fall — with tolerance
bands around the published numbers.  Heavy whole-corpus pipelines are
timed with ``benchmark.pedantic(rounds=1)``; micro-kernels use the plain
``benchmark`` fixture.
"""

import pytest


def assert_close(measured, paper, tolerance, label=""):
    """Shape assertion: measured within ±tolerance (absolute, in the same
    unit as the paper's number — usually percentage points)."""
    assert abs(measured - paper) <= tolerance, (
        f"{label}: measured {measured} vs paper {paper} "
        f"(tolerance ±{tolerance})"
    )


@pytest.fixture(scope="session")
def paper_corpus_results():
    """The full 285-app corpus scan, shared by the corpus benchmarks."""
    from repro.eval.experiments import corpus_scan

    return corpus_scan(285)
