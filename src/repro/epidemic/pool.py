"""Struct-of-arrays host pool: a million hosts without a million objects.

The paper's campaigns are regional epidemics (tens of thousands of
infections across the Middle East), but a full :class:`WindowsHost`
costs kilobytes of Python objects — a filesystem, a registry, a disk.
The pool stores only what the compartmental model needs, as parallel
``array`` rows:

* ``state``      — one byte per host: S/E/I/R compartment code;
* ``region``     — one short per host: index into the pool's region
  name table (the paper's per-country victim distributions);
* ``exposed_epoch`` — the epoch a host left S (−1 while susceptible),
  which together with the profile's fixed latency also determines when
  it turns infectious — so the model's iteration orders are fully
  reconstructible from the arrays alone;
* ``vector``     — which transmission channel claimed it (USB / LAN /
  C2 / initial seeding).

That is 8 bytes per host: a 10^6-host pool fits in ~8 MB and snapshots
into a checkpoint as four base64 strings.  Compartment totals, per-
region infectious counts, and per-vector tallies are maintained
incrementally, so the epidemic stepper's hazard computation is O(#
regions), not O(N).

Individual hosts are promoted to full fidelity on demand — see
:mod:`repro.epidemic.promote`.
"""

import base64
import sys
from array import array
from itertools import accumulate, compress

#: Compartment codes, in lifecycle order.  A host only ever moves
#: forward: S -> E (exposed, latent) -> I (infectious) -> R (removed —
#: cleaned, patched, or suicided).
SUSCEPTIBLE = 0
EXPOSED = 1
INFECTIOUS = 2
RECOVERED = 3

STATE_NAMES = ("susceptible", "exposed", "infectious", "recovered")

#: Transmission channels a pool host can be claimed by.  Stored as an
#: index into this tuple; 0 means "not infected yet".
VECTORS = ("none", "initial", "usb", "lan", "c2")

_VECTOR_CODES = {name: code for code, name in enumerate(VECTORS)}

#: Per state code, a ``bytes.translate`` table mapping that code to 1
#: and every other byte to 0: a C-speed membership mask over ``state``.
_STATE_FLAGS = tuple(bytes(int(byte == code) for byte in range(256))
                     for code in range(len(STATE_NAMES)))


def assign_regions(rng, count, region_weights):
    """Deterministically assign ``count`` hosts to weighted regions.

    One uniform draw per host against the cumulative weight table, in
    host-index order — the full-fidelity oracle uses the same function
    on the same forked stream, so both tiers agree on every host's
    region by construction.  Returns an ``array('h')`` of region codes.
    """
    if count < 0:
        raise ValueError("count must be >= 0, got %r" % count)
    weights = [float(weight) for _, weight in region_weights]
    if not weights or any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("region weights must be non-negative with a "
                         "positive sum, got %r" % (region_weights,))
    return array("h", rng.choices(range(len(weights)),
                                  list(accumulate(weights)), count))


def _encode_array(values):
    """JSON-safe snapshot of one pool array (canonical little-endian)."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return {
        "typecode": values.typecode,
        "itemsize": values.itemsize,
        "data": base64.b64encode(values.tobytes()).decode("ascii"),
    }


class HostPool:
    """The aggregate-fidelity population: parallel arrays, no objects.

    Parameters
    ----------
    count:
        Number of hosts in the pool.
    region_weights:
        Sequence of ``(region_name, weight)`` pairs — the paper's
        victim distributions.
    rng:
        A dedicated forked stream for region assignment (one draw per
        host; nothing else in the pool consumes randomness).
    """

    def __init__(self, count, region_weights, rng):
        if count <= 0:
            raise ValueError("pool needs at least one host, got %r" % count)
        self.count = count
        self.region_names = tuple(name for name, _ in region_weights)
        if len(set(self.region_names)) != len(self.region_names):
            raise ValueError("duplicate region names: %r"
                             % (self.region_names,))
        self._region = assign_regions(rng, count, region_weights)
        self._state = array("b", bytes(count))
        self._exposed_epoch = array("i", [-1]) * count
        self._vector = array("b", bytes(count))
        #: Hosts per region (fixed at construction).
        self.region_counts = [0] * len(self.region_names)
        for code in self._region:
            self.region_counts[code] += 1
        #: Compartment totals, maintained incrementally.
        self.counts = [count, 0, 0, 0]
        #: Infectious hosts per region, maintained incrementally — the
        #: stepper's LAN hazard is O(#regions) because of this.
        self.infectious_by_region = [0] * len(self.region_names)
        #: Hosts per region that ever left S, maintained incrementally.
        self._infected_by_region = [0] * len(self.region_names)
        #: Cumulative infections per transmission channel, keyed in the
        #: order each channel first claimed a host.
        self.vector_counts = {}

    # -- read access ----------------------------------------------------------

    def state_of(self, index):
        return self._state[index]

    def region_of(self, index):
        """Region *name* of one host."""
        return self.region_names[self._region[index]]

    def vector_of(self, index):
        """Transmission channel that claimed this host ('none' if S)."""
        return VECTORS[self._vector[index]]

    def exposed_epoch_of(self, index):
        """Epoch the host left S, or -1 while still susceptible."""
        return self._exposed_epoch[index]

    def region_view(self):
        """The raw region-code array — read-only, for hot loops."""
        return self._region

    def state_view(self):
        """The raw state array — read-only, for hot loops."""
        return self._state

    def exposed_epoch_view(self):
        """The raw exposure-epoch array — read-only."""
        return self._exposed_epoch

    def indices_in_state(self, state):
        """Ascending host indices currently in ``state``."""
        flags = self._state.tobytes().translate(_STATE_FLAGS[state])
        return list(compress(range(self.count), flags))

    def compartments(self):
        """``{name: count}`` snapshot of the compartment totals."""
        return dict(zip(STATE_NAMES, self.counts))

    def cumulative_infections(self):
        """Hosts that have ever left S (E + I + R)."""
        return self.count - self.counts[SUSCEPTIBLE]

    def infected_by_region(self):
        """``{region: hosts that ever left S}``."""
        return dict(zip(self.region_names, self._infected_by_region))

    # -- transitions ----------------------------------------------------------
    #
    # S -> E and E -> I each have one implementation, a batch: the
    # stepper hands over a whole epoch's hosts in one call.  The loops
    # still check every host's state; on an illegal one they settle the
    # counters for the hosts already moved, so the pool stays
    # consistent, then raise.

    def expose_all(self, indices, vector_codes, epoch):
        """S -> E: ``indices[i]`` caught the malware this epoch over
        channel ``VECTORS[vector_codes[i]]``."""
        if len(vector_codes) != len(indices):
            raise ValueError("%d hosts but %d vector codes"
                             % (len(indices), len(vector_codes)))
        if vector_codes and not (0 < min(vector_codes)
                                 and max(vector_codes) < len(VECTORS)):
            raise ValueError("vector codes must index VECTORS[1:], got %r"
                             % (sorted(set(vector_codes)),))
        state = self._state
        exposed_epoch = self._exposed_epoch
        vector = self._vector
        region = self._region
        infected = self._infected_by_region
        for done, index in enumerate(indices):
            if state[index] != SUSCEPTIBLE:
                self._count_exposures(vector_codes[:done])
                raise ValueError("host %d is %s, not susceptible"
                                 % (index, STATE_NAMES[state[index]]))
            state[index] = EXPOSED
            exposed_epoch[index] = epoch
            vector[index] = vector_codes[done]
            infected[region[index]] += 1
        self._count_exposures(vector_codes)

    def _count_exposures(self, vector_codes):
        self.counts[SUSCEPTIBLE] -= len(vector_codes)
        self.counts[EXPOSED] += len(vector_codes)
        tallies = self.vector_counts
        for code in sorted(set(vector_codes), key=vector_codes.index):
            name = VECTORS[code]
            tallies[name] = tallies.get(name, 0) + vector_codes.count(code)

    def activate_all(self, indices):
        """E -> I: the latency elapsed; the hosts spread from now on."""
        state = self._state
        region = self._region
        infectious = self.infectious_by_region
        for done, index in enumerate(indices):
            if state[index] != EXPOSED:
                self._count_activations(done)
                raise ValueError("host %d is %s, not exposed"
                                 % (index, STATE_NAMES[state[index]]))
            state[index] = INFECTIOUS
            infectious[region[index]] += 1
        self._count_activations(len(indices))

    def _count_activations(self, count):
        self.counts[EXPOSED] -= count
        self.counts[INFECTIOUS] += count

    def expose(self, index, epoch, vector):
        """S -> E for one host (see :meth:`expose_all`)."""
        code = _VECTOR_CODES.get(vector)
        if not code:
            raise ValueError("unknown vector %r (expected one of %s)"
                             % (vector, VECTORS[1:]))
        self.expose_all((index,), (code,), epoch)

    def activate(self, index):
        """E -> I for one host (see :meth:`activate_all`)."""
        self.activate_all((index,))

    def seed(self, index, epoch=0, vector="initial"):
        """S -> I directly: a patient-zero host, infectious from day one."""
        self.expose(index, epoch, vector)
        self.activate(index)

    def recover(self, index):
        """I -> R: cleaned, patched, or suicided out of the population."""
        if self._state[index] != INFECTIOUS:
            raise ValueError(
                "host %d is %s, not infectious"
                % (index, STATE_NAMES[self._state[index]]))
        self._state[index] = RECOVERED
        self.counts[INFECTIOUS] -= 1
        self.counts[RECOVERED] += 1
        self.infectious_by_region[self._region[index]] -= 1

    def force_state(self, index, state):
        """Overwrite one host's compartment, fixing every counter.

        The demotion write-back path: a promoted host may have been
        disinfected (or infected) at full fidelity, and its pool row
        must reflect the outcome whatever it was.
        """
        if state not in (SUSCEPTIBLE, EXPOSED, INFECTIOUS, RECOVERED):
            raise ValueError("unknown state code %r" % (state,))
        old = self._state[index]
        if old == state:
            return
        self.counts[old] -= 1
        self.counts[state] += 1
        region = self._region[index]
        if old == INFECTIOUS:
            self.infectious_by_region[region] -= 1
        if state == INFECTIOUS:
            self.infectious_by_region[region] += 1
        if old == SUSCEPTIBLE:
            self._infected_by_region[region] += 1
        if state == SUSCEPTIBLE:
            self._infected_by_region[region] -= 1
            self._exposed_epoch[index] = -1
            self._vector[index] = 0
        self._state[index] = state

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self):
        """JSON-safe snapshot: arrays as base64, plus the counters.

        Pure observation — reads every array, mutates nothing, consumes
        no randomness.
        """
        return {
            "count": self.count,
            "region_names": list(self.region_names),
            "region_counts": list(self.region_counts),
            "counts": list(self.counts),
            "vector_counts": dict(sorted(self.vector_counts.items())),
            "arrays": {
                "state": _encode_array(self._state),
                "region": _encode_array(self._region),
                "exposed_epoch": _encode_array(self._exposed_epoch),
                "vector": _encode_array(self._vector),
            },
        }

    def __len__(self):
        return self.count

    def __repr__(self):
        return ("HostPool(%d hosts, %d regions, S/E/I/R=%r)"
                % (self.count, len(self.region_names), self.counts))
