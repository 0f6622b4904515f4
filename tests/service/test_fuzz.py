"""Hostile request bytes against a live daemon.

Generated request lines, header blocks, ``Content-Length`` values,
wrongly typed JSON envelopes and non-UTF-8 bodies go to one
:func:`~repro.service.start_in_thread` daemon as raw socket bytes, the
way ``tests/ir/test_parser_fuzz.py`` feeds ``.apkt`` text to the parser.
Every request must get a ``202`` or a ``4xx`` whose body is a JSON
object with an ``error`` string — never a ``500`` and never silence —
and the daemon must keep serving.  Its pool runs no scan: each admitted
job fails at once, so the queue never fills and only the HTTP layer and
the submission parser are under test.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import ServiceConfig, start_in_thread

from .conftest import get_json

#: A small body cap, so generated lengths reach the 413 path too.
MAX_BODY = 4096

FUZZ = settings(max_examples=60, deadline=None)


class NoScans:
    """A pool that fails every job it is handed without scanning."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_exception(RuntimeError("this pool runs no scans"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture(scope="module")
def daemon():
    handle = start_in_thread(ServiceConfig(
        port=0, queue_depth=1_000_000, max_body_bytes=MAX_BODY,
        executor_factory=lambda workers: NoScans(),
    ))
    yield handle
    handle.stop()


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw``, half-close, and read the whole reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def answer(port: int, raw: bytes) -> tuple[int, bytes]:
    """The reply's status and body, after checking the contract every
    reply to a non-empty request keeps."""
    reply = exchange(port, raw)
    head, sep, body = reply.partition(b"\r\n\r\n")
    assert sep, f"no complete reply to {raw[:80]!r}: {reply[:80]!r}"
    status = int(head.split(b" ", 2)[1])
    assert status == 202 or 400 <= status < 500, (status, raw[:80], body)
    if status != 202:
        document = json.loads(body)
        assert isinstance(document, dict), body
        assert isinstance(document.get("error"), str), body
    return status, body


def post(body: bytes, *headers: str, length=None) -> bytes:
    length = len(body) if length is None else length
    lines = ["POST /v1/scans HTTP/1.1", "Host: fuzz",
             f"Content-Length: {length}", *headers]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


#: Text the request head can carry: latin-1, which the parser decodes.
latin1 = st.text(st.characters(min_codepoint=0, max_codepoint=255), max_size=40)

#: Any method but GET, which may reach /healthz or /metrics (a right 200).
methods = st.one_of(
    st.sampled_from(["POST", "PUT", "DELETE", "PATCH", "HEAD", "post", ""]),
    latin1,
).filter(lambda method: "GET" not in method.upper())

targets = st.one_of(
    st.sampled_from([
        "/v1/scans", "/v1/scans/", "/v1/scans/scan-1/findings", "/healthz/x",
        "//[", "http://[::1/v1/scans", "/%zz%", "*", "/v1/scans?a=%ff",
    ]),
    latin1.map(lambda text: "/" + text),
    latin1,
)

versions = st.one_of(
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1", ""]),
    latin1,
)

header_lines = st.one_of(
    st.tuples(
        st.sampled_from(["Content-Type", "Content-Length", "Host",
                         "Transfer-Encoding", "Expect"]) | latin1,
        latin1,
    ).map(lambda pair: f"{pair[0]}: {pair[1]}"),
    latin1,
)

#: Every JSON value; the envelope's keys get these in place of strings.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def not_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


class TestRequestHeads:
    @FUZZ
    @given(method=methods, target=targets, version=versions,
           headers=st.lists(header_lines, max_size=5),
           body=st.binary(max_size=64))
    @example(method="POST", target="//[", version="HTTP/1.1", headers=[],
             body=b"")
    def test_request_lines_and_header_blocks(
        self, daemon, method, target, version, headers, body
    ):
        head = "\r\n".join([f"{method} {target} {version}", *headers])
        answer(daemon.port, head.encode("latin-1") + b"\r\n\r\n" + body)

    @FUZZ
    @given(length=st.one_of(
               st.integers(-(10 ** 20), 10 ** 20).map(str),
               st.integers(0, MAX_BODY + 8).map(str),
               latin1,
           ),
           body=st.binary(max_size=128))
    def test_content_length_values(self, daemon, length, body):
        answer(daemon.port, post(body, "Content-Type: text/plain",
                                 length=length))


class TestSubmissionBodies:
    @FUZZ
    @given(envelope=st.one_of(
        json_values,
        st.fixed_dictionaries(
            {"apkt": json_values}, optional={"filename": json_values}
        ),
    ))
    @example(envelope={"apkt": "apk x\n", "filename": 7})
    @example(envelope={"apkt": "  "})
    @example(envelope=[{"apkt": "apk x\n"}])
    def test_json_envelopes_with_wrong_types(self, daemon, envelope):
        body = json.dumps(envelope).encode()
        status, _ = answer(
            daemon.port, post(body, "Content-Type: application/json")
        )
        well_typed = (
            isinstance(envelope, dict)
            and isinstance(envelope.get("apkt"), str)
            and envelope["apkt"].strip() != ""
            and isinstance(envelope.get("filename", ""), str)
        )
        assert status == (202 if well_typed else 400)

    @FUZZ
    @given(body=st.binary(min_size=1, max_size=256).filter(not_utf8),
           content_type=st.sampled_from(
               ["text/plain", "application/json", "application/octet-stream"]
           ))
    def test_non_utf8_bodies(self, daemon, body, content_type):
        status, _ = answer(
            daemon.port, post(body, f"Content-Type: {content_type}")
        )
        if content_type == "text/plain" and not body.lstrip().startswith(b"{"):
            assert status == 400

    def test_json_nested_past_the_recursion_limit(self, daemon):
        body = b'{"apkt": ' + b"[" * 3000
        status, _ = answer(
            daemon.port, post(body, "Content-Type: application/json")
        )
        assert status == 400


def test_the_daemon_still_answers_after_the_fuzz(daemon):
    """Runs after the fuzz classes above (pytest keeps file order)."""
    assert get_json(daemon.base_url + "/healthz")["status"] == "ok"
