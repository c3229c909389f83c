"""Reference oracle: the Monte Carlo harness as a plain per-site loop.

An independent, deliberately plain path for cross-checking
``quditlab.decoders.monte_carlo_trial``: each trial draws, per site, one
uniform for X (and its exponent on a hit), then one for Z (and its exponent),
and decodes every noisy trial afresh, with no memo.  It differs from the
per-site loop the harness first shipped with in one rule only: a decoder that
gives up (``InconsistentSyndromeError``) counts as a failed trial under the
class ``gave-up`` instead of aborting the run.
"""

import random

from quditlab import engine
from quditlab.decoders import MonteCarloResult, _class_names, _class_tuple
from quditlab.errors import InconsistentSyndromeError
from quditlab.pauli import PauliOp, pauli_mul


def trial_errors(model, error_rate, trials, seed):
    """Each trial's error as its (site, x, z) terms, in trial order."""
    rng = random.Random(seed)
    N = model.modulus
    for _ in range(trials):
        terms = []
        for site in range(model.n_sites):
            x = rng.randrange(1, N) if rng.random() < error_rate else 0
            z = rng.randrange(1, N) if rng.random() < error_rate else 0
            if x or z:
                terms.append((site, x, z))
        yield tuple(terms)


def monte_carlo_trial(model, decoder, error_rate, trials, seed):
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must lie in [0, 1]")
    n = model.n_sites
    N = model.modulus
    failures = 0
    class_counts = {}
    names = _class_names(model)
    for terms in trial_errors(model, error_rate, trials, seed):
        if not terms:
            class_counts["1"] = class_counts.get("1", 0) + 1
            continue
        err = PauliOp(N, n, terms)
        try:
            corr = decoder(model, engine.syndrome(model, err))
        except InconsistentSyndromeError:
            corr = None
        if corr is None:
            label = "gave-up"
        else:
            residual = pauli_mul(err, corr.op)
            if engine.syndrome(model, residual):
                label = "syndrome"
            else:
                label = names.get(_class_tuple(residual, model.logicals), "unknown")
        class_counts[label] = class_counts.get(label, 0) + 1
        if label != "1":
            failures += 1
    return MonteCarloResult(error_rate, trials, failures, seed, class_counts)
