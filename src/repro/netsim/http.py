"""Minimal HTTP model: requests, responses, and routed servers."""


class HttpRequest:
    """One HTTP request as the simulation sees it."""

    __slots__ = ("method", "url", "path", "params", "body", "client", "headers")

    def __init__(self, method, url, client=None, params=None, body=b"", headers=None):
        self.method = method.upper()
        self.url = url
        self.path = url_path(url)
        self.params = dict(params or {})
        #: ``bytes``, or a :class:`repro.crypto.padded.Padded` payload.
        self.body = body
        #: Hostname/ip of the requesting machine (what a server logs).
        self.client = client
        self.headers = dict(headers or {})

    @property
    def size(self):
        return len(self.body) + len(self.url) + sum(
            len(k) + len(str(v)) for k, v in self.params.items()
        )

    def __repr__(self):
        return "HttpRequest(%s %s)" % (self.method, self.url)


class HttpResponse:
    """One HTTP response."""

    __slots__ = ("status", "body", "headers")

    def __init__(self, status=200, body=b"", headers=None):
        self.status = status
        self.body = body if isinstance(body, bytes) else str(body).encode("utf-8")
        self.headers = dict(headers or {})

    @property
    def ok(self):
        return 200 <= self.status < 300

    @property
    def size(self):
        return len(self.body)

    @classmethod
    def not_found(cls, message="not found"):
        return cls(404, message)

    @classmethod
    def error(cls, message="server error"):
        return cls(500, message)

    def __repr__(self):
        return "HttpResponse(%d, %d bytes)" % (self.status, len(self.body))


def url_host(url):
    """Hostname part of an ``http://host/path`` URL."""
    stripped = url.split("://", 1)[-1]
    return stripped.split("/", 1)[0]


def url_path(url):
    """Path part of a URL ('/' when absent)."""
    stripped = url.split("://", 1)[-1]
    if "/" not in stripped:
        return "/"
    return "/" + stripped.split("/", 1)[1]


class HttpServer:
    """A routed HTTP server attached to a domain or a LAN host.

    Routes are exact paths mapped to ``handler(request) -> HttpResponse``
    (or a prefix when registered with ``prefix=True``).  The access log
    records every request — C&C hosting providers "are not aware of the
    activity of the servers" precisely because these logs look ordinary.
    """

    def __init__(self, name):
        self.name = name
        self._routes = {}
        self._prefix_routes = []
        self.access_log = []

    def route(self, path, handler, prefix=False):
        if prefix:
            self._prefix_routes.append((path, handler))
        else:
            self._routes[path] = handler
        return self

    def handle(self, request):
        self.access_log.append(request)
        handler = self._routes.get(request.path)
        if handler is None:
            for prefix, candidate in self._prefix_routes:
                if request.path.startswith(prefix):
                    handler = candidate
                    break
        if handler is None:
            return HttpResponse.not_found("no route for %s" % request.path)
        return handler(request)

    def requests_seen(self):
        return len(self.access_log)
