"""Self-checks of the benchmark's own arithmetic, on synthetic data.

run.py calls ``run()`` before every measurement; ``python3
perfbench/selfcheck.py`` runs it alone.
"""

from __future__ import annotations

from tracing import layer_totals, rank_percentile, reportable_percentile, self_times


class SelfCheckError(AssertionError):
    pass


def _expect(what: str, got, want) -> None:
    if got != want:
        raise SelfCheckError(f"{what}: got {got!r}, expected {want!r}")


def check_percentiles() -> None:
    samples = list(range(1, 101))  # 1..100
    _expect("p90 of 1..100", rank_percentile(samples, 90), (90, 10))
    _expect("p50 of 1..100", rank_percentile(samples, 50), (50, 50))
    _expect("p90 of 1..100 is reportable", reportable_percentile(samples, 90), 90)
    _expect("p90 of 1..99 leaves 9 beyond", rank_percentile(samples[:99], 90), (90, 9))
    _expect("p90 of 1..99 is not reportable", reportable_percentile(samples[:99], 90), None)
    # 0.9 * 110 is 99.00000000000001 in floating point; the rank must still be 99.
    _expect("p90 of 1..110", rank_percentile(range(110, 0, -1), 90), (99, 11))
    _expect("p100", rank_percentile(samples, 100), (100, 0))
    _expect("one sample", rank_percentile([7.0], 50), (7.0, 0))


def check_self_time() -> None:
    # a [0, 10] holds b [1, 4] and d [5, 6]; b holds c [2, 3].
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 6.0, 0, 3),
        ("d", 11.0, 13.5, -1, 4),  # a second root
    ]
    _expect("self times", self_times(spans), [6.0, 2.0, 1.0, 1.0, 2.5])
    totals = layer_totals(spans)
    _expect("d totals", totals["d"], {"calls": 2, "self_s": 3.5, "work": 7})
    _expect("a totals", totals["a"]["self_s"], 6.0)
    # A child reaching past its parent (clock skew) and overlapping
    # siblings count each covered instant once, clipped to the parent.
    odd = [("p", 0.0, 4.0, -1, 0), ("x", 1.0, 3.0, 0, 0), ("y", 2.0, 5.0, 0, 0)]
    _expect("overlapping children", self_times(odd)[0], 1.0)


def run() -> None:
    check_percentiles()
    check_self_time()


if __name__ == "__main__":
    run()
    print("self-checks passed")
