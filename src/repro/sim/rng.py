"""Seeded randomness for reproducible simulations.

Every stochastic decision in the library (which share a worm probes first,
how large a stolen document is, whether a Bluetooth device is in range)
draws from a :class:`DeterministicRandom` owned by the kernel, so a run is
fully determined by its seed.
"""

import random


class DeterministicRandom:
    """Thin, intention-revealing wrapper around :class:`random.Random`."""

    def __init__(self, seed=0):
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self):
        return self._seed

    def random(self):
        """A uniform float in [0, 1).

        The raw stream behind :meth:`chance`, exposed for hot loops
        (the epidemic stepper draws one Bernoulli per susceptible host
        per epoch) that hoist the bound method and compare against a
        precomputed hazard instead of paying a range check per draw.
        """
        return self._random.random()

    def chance(self, probability):
        """Return True with the given probability in [0, 1]."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1], got %r" % probability)
        return self._random.random() < probability

    def uniform(self, low, high):
        return self._random.uniform(low, high)

    def randint(self, low, high):
        return self._random.randint(low, high)

    def choice(self, sequence):
        return self._random.choice(sequence)

    def sample(self, population, count):
        return self._random.sample(population, count)

    def shuffle(self, items):
        """Shuffle ``items`` in place and also return it for chaining."""
        self._random.shuffle(items)
        return items

    def bytes(self, count):
        """Return ``count`` pseudo-random bytes."""
        return self._random.randbytes(count)

    def gauss(self, mu, sigma):
        return self._random.gauss(mu, sigma)

    def expovariate(self, rate):
        return self._random.expovariate(rate)

    def fork(self, label):
        """Derive an independent child stream keyed by ``label``.

        Components that create their own sub-streams (e.g. one per host)
        stay reproducible regardless of the order other components draw in.
        """
        return DeterministicRandom(seed="%r|%s" % (self._seed, label))

    def getstate(self):
        """JSON-safe snapshot of the stream: seed plus generator state.

        The seed travels with the Mersenne state because :meth:`fork`
        derives child seeds from it: two streams with equal generator
        state but different seeds fork differently, so a state digest
        must tell them apart.
        """
        if isinstance(self._seed, bool) or \
                not isinstance(self._seed, (int, str)):
            from repro.sim.errors import CheckpointError

            raise CheckpointError(
                "only int or str seeds can be checkpointed, got %r"
                % (self._seed,))
        version, internal, gauss_next = self._random.getstate()
        return {
            "seed_kind": "int" if isinstance(self._seed, int) else "str",
            "seed": self._seed,
            "version": version,
            "internal": list(internal),
            "gauss_next": gauss_next,
        }
