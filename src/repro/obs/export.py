"""Exporters: JSONL traces, Prometheus text dumps, figure edge lists.

Everything here is a pure function of a finished kernel (its spans,
trace, and metric snapshot), normalised so that two runs with the same
seed export byte for byte the same artefacts — the property the golden
-trace conformance suite pins.

The per-figure exporters regenerate the paper's six data-flow diagrams
as edge lists: every :class:`~repro.sim.trace.TraceRecord` is one arrow
(actor → target, labelled by action) and every span is one stage box
(parent stage → child stage), filtered down to the records each figure
draws.
"""

import hashlib
import json

#: Bump when the line shape changes, so stale golden digests fail with
#: an explanation instead of a bare mismatch.
EXPORT_FORMAT = 1


def jsonable(value):
    """Reduce any trace-detail value to a deterministic JSON value.

    Bytes render as a size marker (payload bodies are simulation
    filler, and megabytes of base64 would drown the export); arbitrary
    objects render as their type name — their default ``repr`` embeds a
    memory address, which would break byte-identical exports.  Non-
    finite floats render as strings because strict JSON has no literal
    for them (fault windows use ``inf`` for "never lifts").
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") \
            else repr(value)
    if isinstance(value, bytes):
        return "<%d bytes>" % len(value)
    if isinstance(value, dict):
        return {str(key): jsonable(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=repr)
    return "<%s>" % type(value).__name__


def jsonable_ordered(value):
    """Like :func:`jsonable`, but dicts keep their insertion order.

    Checkpoint digests are taken over canonical sorted JSON either
    way; preserving the order in the stored payload means values like
    a campaign result's ``infection_vectors`` tally round-trip exactly,
    so a resumed run prints byte-identically to the original.
    """
    if isinstance(value, dict):
        return {str(key): jsonable_ordered(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_ordered(item) for item in value]
    return jsonable(value)


def trace_lines(kernel, meta=None):
    """Yield the export as primitive dicts, one per eventual JSONL line.

    Order: one ``meta`` header, spans in begin order, trace records in
    append order, metrics sorted by name — all deterministic for a
    seeded run.
    """
    header = {"kind": "meta", "format": EXPORT_FORMAT,
              "spans": len(kernel.spans), "records": len(kernel.trace),
              "sim_seconds": kernel.clock.now}
    if meta:
        header.update({str(k): jsonable(v) for k, v in meta.items()})
    yield header
    for span in kernel.spans:
        line = span.as_dict()
        line["attrs"] = jsonable(line["attrs"])
        line["kind"] = "span"
        yield line
    for record in kernel.trace:
        yield {"kind": "record", "time": record.time, "actor": record.actor,
               "action": record.action, "target": record.target,
               "detail": jsonable(record.detail)}
    snapshot = kernel.metrics.snapshot()
    for name in snapshot:
        line = {"kind": "metric", "name": name}
        line.update(jsonable(snapshot[name]))
        yield line


def _dump(line):
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def write_jsonl(kernel, stream, meta=None):
    """Write the full export to ``stream``; returns the line count."""
    count = 0
    for line in trace_lines(kernel, meta=meta):
        stream.write(_dump(line))
        stream.write("\n")
        count += 1
    return count


def export_digest(kernel, meta=None):
    """SHA-256 over the normalised JSONL export.

    This is what the golden-trace conformance suite commits: cheap to
    store, and any behavioural drift — a reordered event, a changed
    metric, a renamed span — changes it.
    """
    digest = hashlib.sha256()
    for line in trace_lines(kernel, meta=meta):
        digest.update(_dump(line).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# -- Prometheus-style text dump ------------------------------------------------

def _prom_name(name):
    """Flatten a dotted metric name to the Prometheus character set."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    flat = "".join(out)
    return flat if not flat[:1].isdigit() else "_" + flat


def prometheus_text(snapshot):
    """Render a metrics snapshot in the Prometheus exposition format."""
    lines = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        flat = _prom_name(name)
        lines.append("# TYPE %s %s" % (flat, entry["type"]))
        if entry["type"] == "histogram":
            cumulative = 0
            for bound, count in zip(entry["bounds"], entry["counts"]):
                cumulative += count
                lines.append('%s_bucket{le="%g"} %d'
                             % (flat, bound, cumulative))
            cumulative += entry["counts"][-1]
            lines.append('%s_bucket{le="+Inf"} %d' % (flat, cumulative))
            lines.append("%s_sum %s" % (flat, _prom_value(entry["sum"])))
            lines.append("%s_count %d" % (flat, entry["count"]))
        else:
            lines.append("%s %s" % (flat, _prom_value(entry["value"])))
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_value(value):
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(value)


# -- figure edge lists ---------------------------------------------------------

#: Each paper figure, as the span subtrees and trace filters that
#: regenerate it.  Filters use :meth:`TraceLog.query` syntax (trailing
#: ``*`` is a prefix match); a record matching several filters counts
#: once.
FIGURES = {
    "fig1-stuxnet-operation": {
        "title": "Fig. 1: Stuxnet self-guided operation "
                 "(USB -> Windows -> Step 7 -> PLC)",
        "span_prefixes": ("stuxnet.",),
        "filters": ({"actor": "stuxnet"}, {"action": "stuxnet-*"},
                    {"action": "step7-*"}, {"action": "plc-*"},
                    {"action": "lnk-exploit-fired"}, {"action": "usb-*"},
                    {"action": "mof-launched-dropper"},
                    {"action": "spooler-files-dropped"}),
    },
    "fig2-flame-wu-mitm": {
        "title": "Fig. 2: Flame spreading via the Windows Update MITM",
        "span_prefixes": ("flame.wu_spread", "flame.infect"),
        "filters": ({"action": "snack-*"}, {"action": "windows-update-*"},
                    {"actor": "flame", "action": "infection"}),
    },
    "fig3-flame-exfiltration": {
        "title": "Fig. 3: Flame's staged collection and exfiltration",
        "span_prefixes": ("flame.collect", "flame.beetlejuice",
                          "flame.cnc_exchange", "flame.patient_zero",
                          "flame.operations"),
        "filters": ({"actor": "flame"}, {"action": "flame-*"},
                    {"action": "usb-inserted"}),
    },
    "fig4-cnc-platform": {
        "title": "Fig. 4: the C&C platform under rotation, takedown, "
                 "and retry",
        "span_prefixes": ("shamoon.report",),
        "filters": ({"actor": "faults"}, {"actor": "retry"},
                    {"action": "cnc-unreachable"}),
    },
    "fig5-cnc-server": {
        "title": "Fig. 5: inside one C&C server (newsforyou dead drop)",
        "span_prefixes": (),
        "filters": ({"action": "cnc-*"}, {"action": "suicide-broadcast"}),
    },
    "fig6-shamoon-components": {
        "title": "Fig. 6: Shamoon's dropper, wiper, and reporter",
        "span_prefixes": ("shamoon.",),
        "filters": ({"actor": "shamoon"}, {"action": "shamoon-*"},
                    {"action": "report-lost"}, {"action": "boot-failed"}),
    },
}


def figure_edges(kernel, figure):
    """The edge list regenerating one paper figure from a finished run.

    Returns dicts ``{"src", "dst", "label", "count"}`` sorted by
    (src, dst, label).  Trace records contribute ``actor -> target``
    arrows labelled by action; spans contribute ``parent stage ->
    child stage`` arrows labelled ``"stage"``.
    """
    try:
        spec = FIGURES[figure]
    except KeyError:
        raise KeyError("unknown figure %r (expected one of %s)"
                       % (figure, sorted(FIGURES)))
    edges = {}
    seen = set()
    for filters in spec["filters"]:
        for record in kernel.trace.query(**filters):
            if id(record) in seen:
                continue
            seen.add(id(record))
            key = (record.actor, record.target or "", record.action)
            edges[key] = edges.get(key, 0) + 1
    for span in kernel.spans:
        if not any(span.name.startswith(prefix)
                   for prefix in spec["span_prefixes"]):
            continue
        parent = (kernel.spans.by_id(span.parent_id)
                  if span.parent_id else None)
        key = (parent.name if parent else "root", span.name, "stage")
        edges[key] = edges.get(key, 0) + 1
    return [{"src": src, "dst": dst, "label": label, "count": edges[key]}
            for key in sorted(edges)
            for src, dst, label in (key,)]


def export_figures(kernel):
    """Edge lists for every figure, keyed by figure name."""
    return {figure: figure_edges(kernel, figure) for figure in FIGURES}
