"""Fixtures and plain-socket HTTP helpers for the service suite.

The helpers speak to a live daemon over ``urllib`` — real sockets, real
bytes — so every assertion here covers the transport as a client sees
it, not an in-process shortcut.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.app.loader import dumps_apk
from repro.corpus.snippets import RequestSpec

from ..conftest import single_request_app


def http(method, url, body=None, headers=None, timeout=30.0):
    """One HTTP exchange; returns ``(status, headers, body_bytes)`` and
    treats error statuses as ordinary replies, never raising."""
    request = urllib.request.Request(url, data=body, method=method)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, dict(reply.headers), reply.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, dict(exc.headers), exc.read()


def get_json(url):
    status, _, body = http("GET", url)
    assert status == 200, body
    return json.loads(body)


def submit(base_url, apkt_text, *, filename=None):
    """POST one submission; raw body by default, the JSON envelope when
    a filename must ride along."""
    headers = {}
    if filename is None:
        body = apkt_text.encode("utf-8")
        headers["Content-Type"] = "text/plain"
    else:
        body = json.dumps({"apkt": apkt_text, "filename": filename}).encode()
        headers["Content-Type"] = "application/json"
    return http("POST", f"{base_url}/v1/scans", body, headers)


def wait_done(base_url, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = get_json(f"{base_url}/v1/scans/{job_id}")
        if view["status"] in ("done", "failed"):
            return view
        time.sleep(0.05)
    raise AssertionError(f"scan {job_id} still {view['status']} after "
                         f"{timeout}s")


def submit_and_wait(base_url, apkt_text, **kwargs):
    status, _, body = submit(base_url, apkt_text, **kwargs)
    assert status == 202, body
    return wait_done(base_url, json.loads(body)["id"])


def app_text(package="com.service.app"):
    """One buggy single-request app as ``.apkt`` text."""
    apk, _ = single_request_app(RequestSpec(), package=package)
    return dumps_apk(apk)


#: The app-scoped artifact kinds a warm scan must not rebuild (method-
#: scoped ones — cfg, defuse, constants — are rebuilt on demand and are
#: fine either way).
APP_KINDS = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")


def app_builds(counters):
    """Total app-scoped artifact builds in a counters dict — the number
    a warm scan must hold at zero."""
    return sum(counters.get(f"artifact.{kind}.builds", 0) for kind in APP_KINDS)
