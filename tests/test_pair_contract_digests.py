"""Criterion 9's operations pinned by digest.

For seeded random pairs (f, g), drawn with criterion 9's generator, the
outputs of eval_leading, approx_quotient, syzygy_family and reduce are
rendered as text (to_string and rat_str) and hashed with SHA-256, one
digest per pair.  tests/pair_contract_digests.json holds the digests of
seeds 97 and 1009; any change to an output, down to the order of a
family's elements or a step's quotient, changes its pair's digest.

Regenerate the file only from a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_pair_contract_digests.py
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from shared_inputs import criterion_9_poly
from valmon.bipoly import eval_leading
from valmon.exactnum import rat_str
from valmon.gbengine import approx_quotient, reduce, syzygy_family
from valmon.series import dyadic_spec
from valmon.valmonoid import MonoidContext

DIGESTS = Path(__file__).resolve().parent / "pair_contract_digests.json"
SEEDS = (97, 1009)
PAIRS = 1000


def _render(f, g, ctx):
    lines = []
    for p in (f, g):
        lead = eval_leading(p, ctx)
        lines.append(f"lead {rat_str(lead.le)} {rat_str(lead.lc)} "
                     f"{lead.certified_at}")
    h = approx_quotient(f, g, ctx)
    lines.append("quotient " + ("none" if h is None else h.to_string()))
    for elt in syzygy_family(f, g, ctx):
        lines.append(f"syzygy {rat_str(elt.value)} | {elt.a.to_string()} | "
                     f"{elt.b.to_string()} | {elt.spoly.to_string()}")
    trace = reduce(f, [g], ctx)
    for step in trace.steps:
        lines.append(f"step {step.divisor} {rat_str(step.value_before)} | "
                     f"{step.quotient.to_string()}")
    lines.append("remainder " + trace.remainder.to_string())
    return "\n".join(lines)


def pair_digests(seed, pairs=PAIRS):
    """SHA-256 hex digests of the rendered outputs of the first `pairs`
    nonzero pairs of the seed, on one shared dyadic depth-8 context."""
    ctx = MonoidContext(dyadic_spec(), 8)
    rng = random.Random(seed)
    out = []
    while len(out) < pairs:
        f, g = criterion_9_poly(rng), criterion_9_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        text = _render(f, g, ctx)
        out.append(hashlib.sha256(text.encode()).hexdigest())
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_contract_outputs_are_pinned(seed):
    pinned = json.loads(DIGESTS.read_text())["digests"][str(seed)]
    t0 = time.monotonic()
    got = pair_digests(seed, len(pinned))
    elapsed = time.monotonic() - t0
    changed = [i for i, (a, b) in enumerate(zip(got, pinned)) if a != b]
    assert not changed, f"{len(changed)} pairs changed, first {changed[:5]}"
    assert len(pinned) == PAIRS
    assert elapsed < 3.0


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {"pairs": PAIRS,
         "digests": {str(s): pair_digests(s) for s in SEEDS}}, indent=1)
        + "\n")
