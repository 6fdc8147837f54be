"""LAN segments and the simulated internet."""

from repro.netsim.dns import DnsServer
from repro.netsim.http import HttpRequest, url_host
from repro.netsim.packet import PacketCapture
from repro.netsim.wpad import discover_proxy
from repro.sim.faults import GLOBAL_SCOPE, REQUEST_TIMEOUT, lan_scope
from repro.winsim.interface import SimHost


class NetworkError(Exception):
    """Base error for network operations."""


class NoRouteError(NetworkError):
    """Raised when a destination is unreachable (e.g. air-gapped LAN)."""


class Internet:
    """The global network: DNS plus sites addressable by domain.

    C&C servers, Windows Update, and connectivity-probe sites all live
    here.  Every request is captured, which is how the Fig. 4 benchmark
    counts domain → server traffic.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.faults = getattr(kernel, "faults", None)
        self.dns = DnsServer(faults=self.faults)
        self.capture = PacketCapture(kernel.clock)
        self._sites = {}
        self._next_ip = [1]

    def allocate_ip(self):
        value = self._next_ip[0]
        self._next_ip[0] += 1
        return "203.0.%d.%d" % (value // 250, value % 250 + 1)

    def register_site(self, domain, server, address=None):
        """Host a site: DNS record + server registration.

        Several domains may point at one address (Flame's 80 domains map
        to 22 server IPs); pass the same ``address`` to alias them.
        """
        if address is None:
            address = self.allocate_ip()
        self._sites[address] = server
        self.dns.register(domain, address)
        return address

    def site_count(self):
        return len(self._sites)

    def http(self, client_label, method, url, params=None, body=b""):
        """Resolve and dispatch an HTTP request from ``client_label``."""
        metrics = self.kernel.metrics
        metrics.inc("net.http_requests")
        domain = url_host(url)
        address = self.dns.resolve(domain, client=client_label)
        if address is None:
            metrics.inc("net.dns_nxdomain")
            metrics.inc("net.http_failures")
            raise NoRouteError("NXDOMAIN: %r" % domain)
        server = self._sites.get(address)
        if server is None:
            metrics.inc("net.http_failures")
            raise NoRouteError("no server at %s (domain %r)" % (address, domain))
        request = HttpRequest(method, url, client=client_label,
                              params=params, body=body)
        self.capture.record(client_label, domain, "http",
                            "%s %s" % (method, request.path), size=request.size)
        metrics.inc("net.bytes_sent", request.size)
        if self.faults is not None:
            # The request went out (captured above) but never completes:
            # injected faults surface as the ordinary error taxonomy.
            if self.faults.site_down(address):
                metrics.inc("net.http_failures")
                raise NoRouteError(
                    "connection refused: server at %s is down (domain %r)"
                    % (address, domain))
            if self.faults.should_drop(GLOBAL_SCOPE, domain):
                metrics.inc("net.http_failures")
                raise NetworkError(
                    "packet loss: request from %r to %r dropped"
                    % (client_label, domain))
            delay = self.faults.extra_latency(GLOBAL_SCOPE, domain)
            if delay >= REQUEST_TIMEOUT:
                self.faults.note_timeout(domain)
                metrics.inc("net.http_failures")
                raise NetworkError(
                    "request to %r timed out (%.0fs injected latency)"
                    % (domain, delay))
        response = server.handle(request)
        self.capture.record(domain, client_label, "http",
                            "response %d" % response.status, size=response.size)
        metrics.inc("net.http_responses")
        metrics.inc("net.bytes_received", response.size)
        return response

    def reachable(self, domain, client_label="probe"):
        """Can ``domain`` be resolved and contacted at all?"""
        address = self.dns.resolve(domain, client=client_label)
        if address is None or address not in self._sites:
            return False
        if self.faults is not None and self.faults.site_down(address):
            return False
        return True


class Lan:
    """One broadcast domain of Windows hosts.

    ``internet=None`` models the protected/air-gapped networks the paper
    repeatedly returns to (Natanz, the confidential sub-networks Flame
    steals from over USB).
    """

    def __init__(self, kernel, name, internet=None, domain_name="corp.local"):
        self.kernel = kernel
        self.name = name
        self.internet = internet
        self.domain_name = domain_name
        self.local_dns = DnsServer(faults=getattr(kernel, "faults", None))
        self.capture = PacketCapture(kernel.clock)
        self._hosts_by_ip = {}
        self._hosts_by_name = {}
        self._next_ip = 10
        #: The Windows-domain administrator credential; hosts that join
        #: the domain accept it for remote execution.
        self.domain_admin_credential = "domain-admin:%s" % domain_name

    # -- membership -----------------------------------------------------------

    def attach(self, host, ip=None, join_domain=True):
        """Connect a host; assigns an address and (optionally) domain trust.

        ``host`` must implement the :class:`~repro.winsim.SimHost`
        interface — attaching anything else used to fail much later
        with an ``AttributeError`` deep inside NetBIOS or SMB; now it
        is rejected here with a typed error.
        """
        if not isinstance(host, SimHost):
            raise NetworkError(
                "cannot attach %r to LAN %r: hosts must implement the "
                "SimHost interface (repro.winsim.SimHost)"
                % (type(host).__name__, self.name))
        hostname = host.hostname.lower()
        if hostname in self._hosts_by_name:
            raise NetworkError(
                "hostname already on LAN %r: %s" % (self.name, hostname))
        if ip is None:
            ip = "10.0.0.%d" % self._next_ip
            self._next_ip += 1
        if ip in self._hosts_by_ip:
            raise NetworkError("address already in use: %s" % ip)
        host.nic = (self, ip)
        self._hosts_by_ip[ip] = host
        self._hosts_by_name[hostname] = host
        if join_domain:
            host.accepted_credentials.add(self.domain_admin_credential)
        return ip

    def detach(self, host):
        if host.nic is None or host.nic[0] is not self:
            return False
        _, ip = host.nic
        del self._hosts_by_ip[ip]
        del self._hosts_by_name[host.hostname.lower()]
        host.nic = None
        return True

    def hosts(self):
        """Attached hosts in address order (deterministic)."""
        return [self._hosts_by_ip[ip] for ip in sorted(self._hosts_by_ip)]

    def host_by_ip(self, ip):
        return self._hosts_by_ip.get(ip)

    def host_by_name(self, hostname):
        return self._hosts_by_name.get(hostname.lower())

    def ip_of(self, host):
        if host.nic is None or host.nic[0] is not self:
            raise NetworkError("host %r is not on LAN %r" % (host.hostname, self.name))
        return host.nic[1]

    @property
    def air_gapped(self):
        return self.internet is None

    # -- NetBIOS --------------------------------------------------------------

    def netbios_broadcast(self, client_host, name):
        """Broadcast a NetBIOS name query; first claimant answers.

        Returns ``(responder_host, value)`` or ``(None, None)``.
        """
        self.capture.record(client_host.hostname, "broadcast", "netbios",
                            "name query %r" % name)
        for host in self.hosts():
            if host is client_host:
                continue
            claim = host.netbios_claims.get(name)
            if claim is not None:
                value = claim(client_host)
                self.capture.record(host.hostname, client_host.hostname,
                                    "netbios", "claim %r" % name)
                return host, value
        return None, None

    # -- HTTP (browser-shaped, honours WPAD proxies) ----------------------------

    def browser_start(self, client_host):
        """Model launching IE: run proxy discovery and cache the result."""
        client_host.proxy_config = discover_proxy(self, client_host)
        return client_host.proxy_config

    def http(self, client_host, method, url, params=None, body=b"",
             use_cached_proxy=True):
        """HTTP from a host on this LAN, via its proxy when one is set."""
        request = HttpRequest(method, url, client=client_host.hostname,
                              params=params, body=body)
        proxy = client_host.proxy_config if use_cached_proxy else None
        if proxy is not None:
            proxy_host = self.host_by_name(proxy.proxy_hostname)
            if proxy_host is not None and proxy_host.proxy_service is not None:
                self.capture.record(client_host.hostname, proxy_host.hostname,
                                    "http-proxied", "%s %s" % (method, url),
                                    size=request.size)
                response = proxy_host.proxy_service.handle(request)
                if response is not None:
                    return response
                # Proxy passed the request through untouched.
                return self._direct(request)
        return self._direct(request)

    def _direct(self, request):
        if self.internet is None:
            raise NoRouteError(
                "LAN %r is air-gapped; cannot reach %r" % (self.name, request.url)
            )
        self.kernel.metrics.inc("net.lan_uplink_requests")
        faults = getattr(self.kernel, "faults", None)
        if faults is not None:
            scope = lan_scope(self.name)
            if faults.site_down(scope):
                raise NoRouteError(
                    "LAN %r uplink is down; cannot reach %r"
                    % (self.name, request.url))
            if faults.should_drop(scope):
                raise NetworkError(
                    "packet loss on LAN %r uplink: %r dropped"
                    % (self.name, request.url))
            delay = faults.extra_latency(scope)
            if delay >= REQUEST_TIMEOUT:
                faults.note_timeout(scope)
                raise NetworkError(
                    "request via LAN %r uplink timed out (%.0fs injected "
                    "latency)" % (self.name, delay))
        return self.internet.http(request.client, request.method, request.url,
                                  params=request.params, body=request.body)

    def http_get(self, client_host, url, params=None, **kwargs):
        return self.http(client_host, "GET", url, params=params, **kwargs)

    def has_internet_access(self, client_host, probe_domains=None):
        """The Stuxnet connectivity probe: can well-known sites be reached?

        Stuxnet "checks whether an internet connection is available by
        trying to open www.windowsupdate.com and www.msn.com" (§II.A).
        """
        if self.internet is None:
            return False
        domains = probe_domains or ("www.windowsupdate.com", "www.msn.com")
        for domain in domains:
            self.capture.record(client_host.hostname, domain, "http",
                                "connectivity probe")
            if self.internet.reachable(domain, client_label=client_host.hostname):
                return True
        return False
