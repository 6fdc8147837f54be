"""Virtual filesystem with Windows path semantics.

Paths are backslash-separated and case-insensitive ("C:\\Windows\\System32"
and "c:\\windows\\system32" name the same directory), which matters because
the malware models drop files under %system% exactly the way the paper
describes (Stuxnet's ``winsta.exe``, Shamoon's ``netinit.exe``).

Files can be *hidden by a rootkit*: listing and existence checks go
through the normal "API" view, which consults the owning host's rootkit
filters, while forensic tooling reads the raw view.
"""


class VfsError(Exception):
    """Base error for filesystem operations."""


class FileNotFound(VfsError):
    """Raised when a path does not resolve to a file."""


def normalize_path(path):
    """Canonical form: backslashes, lowercase, no trailing separator."""
    canonical = path.replace("/", "\\").lower().rstrip("\\")
    while "\\\\" in canonical:
        canonical = canonical.replace("\\\\", "\\")
    if not canonical:
        raise VfsError("empty path")
    return canonical


def split_path(path):
    """(parent, name) of a normalised path."""
    canonical = normalize_path(path)
    if "\\" not in canonical:
        return "", canonical
    parent, _, name = canonical.rpartition("\\")
    return parent, name


class FileAttributes:
    """Mutable attribute set on a file (subset of the Win32 flags)."""

    __slots__ = ("hidden", "system", "readonly", "created", "modified")

    def __init__(self, hidden=False, system=False, readonly=False,
                 created=0.0, modified=0.0):
        self.hidden = hidden
        self.system = system
        self.readonly = readonly
        self.created = created
        self.modified = modified


class VirtualFile:
    """One simulated file: contents plus (optionally) executable behaviour.

    Contents are a literal ``head`` followed by a run of ``zeros`` zero
    bytes.  Zero-filled documents and module footprints, where only the
    byte count matters, so cost an integer instead of a buffer.
    :attr:`data` builds the full bytes on each access, except for a
    file without a zero tail (PE images, ``f1.inf``, every literal
    write), where it returns ``head`` itself.

    ``payload`` is how the simulation models machine code: executing the
    file calls ``payload(host, process)``.  Data and payload are
    independent — analysis tooling sees the bytes, the host runs the
    payload.
    """

    __slots__ = ("path", "head", "zeros", "payload", "attributes", "origin")

    def __init__(self, path, head=b"", payload=None, attributes=None,
                 origin=None, zeros=0):
        self.path = normalize_path(path)
        self.head = bytes(head)
        self.zeros = zeros
        self.payload = payload
        self.attributes = attributes or FileAttributes()
        #: Free-form provenance label ("dropped-by:shamoon.dropper"), used
        #: by the forensic tooling.
        self.origin = origin

    @property
    def name(self):
        return split_path(self.path)[1]

    @property
    def data(self):
        """The exact contents as bytes (built anew if there is a tail)."""
        if not self.zeros:
            return self.head
        return self.head + bytes(self.zeros)

    @property
    def size(self):
        return len(self.head) + self.zeros

    @property
    def extension(self):
        name = self.name
        if "." not in name:
            return ""
        return name.rpartition(".")[2]

    def __repr__(self):
        return "VirtualFile(%r, %d bytes)" % (self.path, self.size)


class VirtualFileSystem:
    """Flat-index filesystem with hierarchical semantics.

    Files live in one dict keyed by canonical path; directories are a set
    of canonical paths.  ``hide_filter`` callables (installed by rootkit
    drivers through the host) make files invisible to the normal API
    view.
    """

    def __init__(self, clock=None):
        self._files = {}
        self._directories = {""}
        self._clock = clock
        self.hide_filters = []
        # Standard skeleton every Windows install carries.
        for directory in (
            "c:",
            "c:\\windows",
            "c:\\windows\\system32",
            "c:\\windows\\system32\\drivers",
            "c:\\windows\\temp",
            "c:\\users",
            "c:\\program files",
        ):
            self.mkdir(directory)

    # -- time ------------------------------------------------------------

    def _now(self):
        return self._clock.now if self._clock is not None else 0.0

    # -- directories -------------------------------------------------------

    def mkdir(self, path):
        """Create a directory and all its ancestors."""
        canonical = normalize_path(path)
        parts = canonical.split("\\")
        for depth in range(1, len(parts) + 1):
            self._directories.add("\\".join(parts[:depth]))

    def is_dir(self, path):
        return normalize_path(path) in self._directories

    def directories(self):
        """All directory paths (raw view)."""
        return sorted(d for d in self._directories if d)

    # -- files ---------------------------------------------------------------

    def write(self, path, data=b"", payload=None, hidden=False, origin=None,
              size=None):
        """Create or overwrite a file, creating parent directories.

        The contents are ``data`` zero-padded to ``size`` bytes; the
        padding is stored as a count, never as a buffer.
        """
        zeros = 0
        if size is not None:
            zeros = size - len(data)
            if zeros < 0:
                raise VfsError("size %d is below the %d bytes of data for %r"
                               % (size, len(data), path))
        canonical = normalize_path(path)
        parent, _ = split_path(canonical)
        if parent:
            self.mkdir(parent)
        existing = self._files.get(canonical)
        created = existing.attributes.created if existing else self._now()
        attributes = FileAttributes(hidden=hidden, created=created, modified=self._now())
        record = VirtualFile(canonical, data, payload, attributes, origin=origin,
                             zeros=zeros)
        self._files[canonical] = record
        return record

    def overwrite_data(self, path, data, offset=0):
        """Overwrite bytes *in place* starting at ``offset``.

        Existing bytes past the overwritten range survive — this models
        partial overwrites faithfully, which the Shamoon JPEG-bug
        experiment depends on.  A write reaching into the zero tail
        moves that stretch into the head (with the zero gap before
        ``offset``, if any); the rest of the tail stays a count.
        """
        record = self.get(path)
        if record.attributes.readonly:
            raise VfsError("file is read-only: %r" % path)
        head = record.head
        end = offset + len(data)
        if end <= len(head):
            record.head = head[:offset] + data + head[end:]
        else:
            gap = bytes(max(0, offset - len(head)))
            record.zeros = max(0, record.zeros - (end - len(head)))
            record.head = head[:offset] + gap + data
        record.attributes.modified = self._now()
        return record

    def get(self, path, raw=False):
        """Fetch a file record; the API view honours rootkit hiding."""
        canonical = normalize_path(path)
        record = self._files.get(canonical)
        if record is None:
            raise FileNotFound(canonical)
        if not raw and self._is_hidden_by_rootkit(record):
            raise FileNotFound(canonical)
        return record

    def read(self, path, raw=False):
        """File contents as bytes."""
        return self.get(path, raw=raw).data

    def exists(self, path, raw=False):
        try:
            self.get(path, raw=raw)
            return True
        except FileNotFound:
            return False

    def delete(self, path, missing_ok=False):
        canonical = normalize_path(path)
        if canonical not in self._files:
            if missing_ok:
                return False
            raise FileNotFound(canonical)
        del self._files[canonical]
        return True

    def rename(self, src, dst):
        """Move a file, preserving its payload and attributes."""
        record = self.get(src, raw=True)
        del self._files[record.path]
        record.path = normalize_path(dst)
        parent, _ = split_path(record.path)
        if parent:
            self.mkdir(parent)
        self._files[record.path] = record
        return record

    # -- listing -----------------------------------------------------------

    def _is_hidden_by_rootkit(self, record):
        return any(hide(record) for hide in self.hide_filters)

    def list_dir(self, path, raw=False):
        """Files directly inside ``path`` (API view unless ``raw``)."""
        canonical = normalize_path(path)
        if canonical not in self._directories:
            raise FileNotFound("no such directory: %r" % canonical)
        out = []
        for record in self._files.values():
            parent, _ = split_path(record.path)
            if parent != canonical:
                continue
            if not raw and self._is_hidden_by_rootkit(record):
                continue
            out.append(record)
        return sorted(out, key=lambda r: r.path)

    def walk(self, root="c:", raw=False):
        """Every file at or below ``root`` (API view unless ``raw``)."""
        prefix = normalize_path(root)
        out = []
        for record in self._files.values():
            if record.path == prefix or record.path.startswith(prefix + "\\"):
                if not raw and self._is_hidden_by_rootkit(record):
                    continue
                out.append(record)
        return sorted(out, key=lambda r: r.path)

    def find_by_extension(self, extensions, root="c:", raw=False):
        """All files whose extension is in ``extensions`` (lowercase)."""
        wanted = {ext.lower().lstrip(".") for ext in extensions}
        return [rec for rec in self.walk(root, raw=raw) if rec.extension in wanted]

    def find_in_folders_named(self, folder_names, raw=False):
        """Files living under any directory whose *name* matches.

        Shamoon's wiper targets "files within folders containing the
        following names: download, document, picture, music, video,
        desktop" — this is that selection primitive.
        """
        wanted = {name.lower() for name in folder_names}
        out = []
        for record in self.walk("c:", raw=raw):
            parts = record.path.split("\\")[:-1]
            if any(any(w in part for w in wanted) for part in parts):
                out.append(record)
        return out

    def file_count(self, raw=True):
        if raw:
            return len(self._files)
        return sum(
            1 for r in self._files.values() if not self._is_hidden_by_rootkit(r)
        )

    def total_bytes(self):
        return sum(r.size for r in self._files.values())
