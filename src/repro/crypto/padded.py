"""Byte strings that end in a long run of one repeating pattern.

Flame pads each exfil entry "to the true stolen volume": a short JSON
head followed by as many zero bytes as the stolen documents weigh.
Only the byte count of that run matters to the experiments, so a
:class:`Padded` value keeps it as an integer, the way
:class:`repro.winsim.vfs.VirtualFile` keeps a file's zero tail.
Sealing XORs the run with a repeating key, which turns it into a run of
that key, so a run repeats a ``fill`` pattern rather than always one
zero byte.

A value carries its run from the collector, through sealing, the HTTP
wire and the C&C store, to the attack center.  ``len()`` is the full
byte length everywhere; :meth:`Padded.__bytes__` is the one place the
run is built.
"""

#: Hashing feeds a run in pieces of this size.
_BLOCK = 1 << 16

#: One shared buffer for hashing zero runs.
_ZERO_BLOCK = bytes(_BLOCK)


def pad(head, run, fill=b"\x00"):
    """``head`` followed by ``run`` bytes repeating ``fill``.

    With no run this is ``head`` itself, so a payload without padding
    stays plain ``bytes``.  A fill of one repeated byte is kept as that
    byte.
    """
    if not run:
        return head
    if fill.count(fill[:1]) == len(fill):
        fill = fill[:1]
    return Padded(head, run, fill)


def head_of(value):
    """The literal bytes of ``value``: a :class:`Padded` head, or ``value``."""
    return value.head if isinstance(value, Padded) else value


class Padded:
    """A literal ``head`` followed by ``run`` bytes that repeat ``fill``.

    Build one with :func:`pad`.  It supports what the exfil path asks of
    its bytes: ``len()``, ``prefix + value`` (wire framing) and slicing
    (:class:`repro.pe.format.ByteReader` parsing the wire).
    """

    __slots__ = ("head", "run", "fill")

    def __init__(self, head, run, fill):
        self.head = head
        self.run = run
        self.fill = fill

    def __len__(self):
        return len(self.head) + self.run

    def __bytes__(self):
        """The full contents, run included."""
        whole, part = divmod(self.run, len(self.fill))
        return self.head + self.fill * whole + self.fill[:part]

    def __radd__(self, prefix):
        return Padded(prefix + self.head, self.run, self.fill)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            raise TypeError("Padded supports slices only")
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("Padded slices take no step")
        stop = max(start, stop)
        head_size = len(self.head)
        if stop <= head_size:
            return self.head[start:stop]
        begin = max(start, head_size)
        phase = (begin - head_size) % len(self.fill)
        return pad(self.head[start:], stop - begin,
                   self.fill[phase:] + self.fill[:phase])

    def chunks(self):
        """The contents as buffers, the run in shared fixed-size pieces."""
        yield self.head
        if self.fill == b"\x00":
            block = _ZERO_BLOCK
        else:
            block = self.fill * max(1, _BLOCK // len(self.fill))
        view = memoryview(block)
        whole, part = divmod(self.run, len(block))
        for _ in range(whole):
            yield view
        yield view[:part]

    def split(self, sep=None, maxsplit=-1):
        """``bytes.split`` of the full contents (this builds them)."""
        return bytes(self).split(sep, maxsplit)

    def __repr__(self):
        return "Padded(%d-byte head + %d-byte run)" % (len(self.head), self.run)
