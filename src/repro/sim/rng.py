"""Seeded randomness for reproducible simulations.

Every stochastic decision in the library (which share a worm probes first,
how large a stolen document is, whether a Bluetooth device is in range)
draws from a :class:`DeterministicRandom` owned by the kernel, so a run is
fully determined by its seed.
"""

import random


class DeterministicRandom:
    """Thin, intention-revealing wrapper around :class:`random.Random`.

    ``random()`` — a uniform float in [0, 1), the raw stream behind
    :meth:`chance` — is the generator's own C method, bound per
    instance rather than wrapped: hot loops (the epidemic stepper draws
    one Bernoulli per susceptible host and one per infectious host
    every epoch) hoist it and compare against a precomputed hazard at
    C-call cost.  ``copy.deepcopy`` treats a builtin method as atomic,
    so a copy would keep drawing from the original's generator;
    :meth:`__setstate__` binds the copy's own.
    """

    def __init__(self, seed=0):
        self._seed = seed
        self._random = random.Random(seed)
        self.random = self._random.random

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["random"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.random = self._random.random

    @property
    def seed(self):
        return self._seed

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

    def choices(self, population, cum_weights, k):
        """``k`` draws from ``population`` against a cumulative weight
        table: one uniform each, bisected into ``cum_weights``."""
        return self._random.choices(population, cum_weights=cum_weights,
                                    k=k)

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
