"""Contexts and specs shared across threads give the sequential results.

Each test forces frequent thread switches with a short switch interval, so
an unsynchronised lazy extension (two threads appending the same term)
shows up within a few trials.
"""

import sys
import threading
import time

from shared_inputs import harmonic_spec
from valmon.bipoly import (_power_table, eval_leading, parse, preimage_image,
                           truncation_min_poly)
from valmon.gbengine import buchberger, reduce
from valmon.series import dyadic_spec
from valmon.valmonoid import MonoidContext

THREADS = 6


def run_threads(jobs, timeout=30):
    """Run the callables in parallel; return their results in order."""
    results = [None] * len(jobs)
    errors = []
    barrier = threading.Barrier(len(jobs))

    def work(k):
        try:
            barrier.wait(timeout)
            results[k] = jobs[k]()
        except Exception as exc:  # reported to the test below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True)
                   for k in range(len(jobs))]
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        for t in threads:
            t.join(max(0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "threads did not finish"
    assert not errors, errors
    return results


def test_spec_terms_under_concurrent_extension():
    want = [harmonic_spec().term(i) for i in range(1, 41)]
    for _ in range(10):
        spec = harmonic_spec()
        got = run_threads([lambda: spec.term(40)] * THREADS)
        assert got == [want[-1]] * THREADS
        assert [spec.term(i) for i in range(1, 41)] == want


def test_shared_context_eval_leading_across_threads():
    # every thread extends the same table of truncation powers z_N^b
    f = parse("y^24 - x^5")
    want = eval_leading(f, MonoidContext(dyadic_spec(), 8))
    for _ in range(20):
        ctx = MonoidContext(dyadic_spec(), 8)
        got = run_threads([lambda: eval_leading(f, ctx)] * THREADS)
        assert got == [want] * THREADS


def test_shared_context_reduce_across_threads():
    # every thread fills the same per-context caches of leading data,
    # preimages and the images of products of p_j that reduce carries
    basis = list(buchberger([parse("x"), parse("y")],
                            MonoidContext(dyadic_spec(), 8), 4).basis)
    f = parse("y^16 + x^5")
    want = reduce(f, basis, MonoidContext(dyadic_spec(), 8))
    assert len(want.steps) > 50
    for _ in range(10):
        ctx = MonoidContext(dyadic_spec(), 8)
        got = run_threads([lambda: reduce(f, basis, ctx)] * THREADS)
        assert got == [want] * THREADS


def test_shared_context_buchberger_across_threads():
    # every thread forms the images of the same S-polynomials from the
    # same cached images of products of p_j and of basis elements, and
    # publishes the images and leading data of the remainders it adjoins
    # to the memo
    gens = [parse("x"), parse("y")]
    want = buchberger(gens, MonoidContext(dyadic_spec(), 8), 4)
    for _ in range(5):
        ctx = MonoidContext(dyadic_spec(), 8)
        got = run_threads([lambda: buchberger(gens, ctx, 4)] * THREADS)
        assert got == [want] * THREADS


def test_shared_context_power_tables_across_threads():
    # y-degrees 8..15 share the depth-4 table (r_4 = 16 > deg_y); racing
    # threads must all read one table per depth, whichever y-degree they
    # look it up by
    polys = [parse(f"y^{d} - x^3") for d in range(8, 16)]
    for _ in range(10):
        ctx = MonoidContext(dyadic_spec(), 8)
        run_threads([lambda: [eval_leading(f, ctx) for f in polys]]
                    * THREADS)
        tables = {key: zp for key, zp in ctx.cache.items()
                  if key[0] == "zpow"}
        assert list(tables) == [("zpow", 4)]
        by_degy = {ctx.cache[("zpow-degy", d)] for d in range(8, 16)}
        assert by_degy == {tables[("zpow", 4)]}


def test_shared_context_preimage_images_across_threads():
    # every thread extends the same cached images of p_1..p_6 and of their
    # products, each at a sequence of descending floors, starting from a
    # different digit vector; an entry a race leaves lower than asked is
    # read from the asked floor up
    vectors = [(1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 1, 1), (0, 1, 1, 0, 0, 1),
               (0, 0, 0, 1, 1), (1, 1)]

    def job(ctx, start):
        zp = _power_table(ctx, 63)
        out = []
        for digits in vectors[start:] + vectors[:start]:
            top = int(sum(d * ctx.seqs.rho(j) * zp.scale
                          for j, d in enumerate(digits, start=1)))
            for lowest in (top + 1, top - 3, top // 2, top // 5, 7, -1):
                floor, coeffs, den = preimage_image(digits, zp, ctx, lowest)
                assert floor <= max(lowest, 0)
                out.append((digits, lowest, den,
                            coeffs[max(lowest, 0) - floor:]))
        return sorted(out)

    want = job(MonoidContext(dyadic_spec(), 8), 0)
    for _ in range(5):
        ctx = MonoidContext(dyadic_spec(), 8)
        got = run_threads([lambda k=k: job(ctx, k % len(vectors))
                           for k in range(THREADS)])
        assert got == [want] * THREADS
        entries = [key for key in ctx.cache if key[0] == "poly-image"]
        # one entry per p_j, under p_j itself, at the table's depth, 6
        # (r_6 = 64 > 63), and none under a one-hot digit vector
        assert len(entries) == 6 and set(entries) == {
            ("poly-image", truncation_min_poly(ctx, j), 6)
            for j in range(1, 7)}
        assert not [key for key in ctx.cache
                    if key[0] == "image" and sum(key[1]) == 1]
