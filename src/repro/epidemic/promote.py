"""On-demand promotion between the pool tier and full fidelity.

A pool row is eight bytes; a :class:`~repro.winsim.WindowsHost` is a
filesystem, a registry, a process table.  Campaigns that need to *look
inside* an infected machine (what did Flame exfiltrate from an Iranian
victim?  is the Stuxnet driver signed?) promote sampled pool rows into
real hosts, run whatever full-fidelity behaviour they need, and demote
the outcome back into the pool.

Promotion is faithful: the new host's infection registry reflects the
row's compartment (an :class:`EpidemicInfection` marked latent for E,
active for I), so every malware/netsim code path that asks
``host.is_infected_by(name)`` sees the same answer the pool gives.
Demotion is conservative in the other direction: whatever happened at
full fidelity — disinfection, a fresh infection, nothing — is written
back through :meth:`HostPool.force_state`, which repairs every derived
counter.  The stepper's iteration orders are only stale when a
demotion wrote back a state other than the promoted one (compare
:func:`demote_host`'s return value with ``host.promoted_state``): then
call ``EpidemicModel.resync_from_pool()`` so they pick up the edit.  A
round-trip that changed nothing leaves them valid, and resyncing a
10^6-host pool costs an O(N) scan plus two sorts.
"""

from repro.epidemic.pool import (
    EXPOSED,
    INFECTIOUS,
    RECOVERED,
    STATE_NAMES,
    SUSCEPTIBLE,
)


class EpidemicInfection:
    """The malware instance registered on promoted (and oracle) hosts.

    ``active`` distinguishes the E and I compartments: a latent
    infection is resident but not yet spreading.
    """

    def __init__(self, name, vector, exposed_epoch, active=True):
        self.name = name
        self.vector = vector
        self.exposed_epoch = exposed_epoch
        self.active = active

    def activate(self):
        """Latency elapsed: the infection starts spreading."""
        self.active = True
        return self

    def __repr__(self):
        return ("EpidemicInfection(%r, vector=%r, epoch=%d, %s)"
                % (self.name, self.vector, self.exposed_epoch,
                   "active" if self.active else "latent"))


def promote_host(world, pool, index, malware_name,
                 hostname_prefix="POOL", **config_kwargs):
    """Materialise one pool row as a full-fidelity Windows host.

    Returns the new host, tagged with ``pool_index`` /
    ``promoted_state`` / ``epidemic_region`` so :func:`demote_host` can
    write the outcome back.  If the row is exposed or infectious, a
    matching :class:`EpidemicInfection` is registered so full-fidelity
    infection checks agree with the pool's bookkeeping.
    """
    if not 0 <= index < pool.count:
        raise ValueError("pool index %d out of range [0, %d)"
                         % (index, pool.count))
    state = pool.state_of(index)
    host = world.make_host("%s-%06d" % (hostname_prefix, index),
                           **config_kwargs)
    host.pool_index = index
    host.promoted_state = state
    host.epidemic_region = pool.region_of(index)
    if state in (EXPOSED, INFECTIOUS):
        host.register_infection(malware_name, EpidemicInfection(
            malware_name, pool.vector_of(index),
            pool.exposed_epoch_of(index),
            active=(state == INFECTIOUS)))
    world.kernel.trace.record(
        "epidemic", "promote", host.hostname, index=index,
        state=STATE_NAMES[state], region=host.epidemic_region)
    return host


def demote_host(pool, host, malware_name):
    """Write one promoted host's full-fidelity outcome back to the pool.

    The compartment is inferred from evidence on the host, not from
    what the pool remembers: a resident infection means E or I (by its
    ``active`` flag); a host promoted susceptible and still clean stays
    S; anything else — the infection was removed, or the row was
    infected before promotion and the instance is gone — demotes to R.
    Returns the state code written back.
    """
    index = getattr(host, "pool_index", None)
    if index is None:
        raise ValueError("host %r was not promoted from a pool"
                         % host.hostname)
    infection = host.infections.get(malware_name)
    if infection is not None:
        state = INFECTIOUS if infection.active else EXPOSED
    elif host.promoted_state == SUSCEPTIBLE and not host.infections:
        state = SUSCEPTIBLE
    else:
        state = RECOVERED
    pool.force_state(index, state)
    host.kernel.trace.record(
        "epidemic", "demote", host.hostname, index=index,
        state=STATE_NAMES[state])
    return state
