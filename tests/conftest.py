"""Shared test fixtures and the acceptance-criteria summary.

After a run that included tests/test_acceptance.py, one PASS/FAIL line
per acceptance criterion is printed at the end of the pytest output.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from scriptweave.similarity import tokenize


class EmbedHandler(BaseHTTPRequestHandler):
    """Embeds each text as [len(tokens), sum of token lengths]."""

    mode = "ok"
    payload = None  # the vector served for every text in "payload" mode, the body in "raw"
    received: list[str] = []

    def do_POST(self):
        if self.path != "/embed":
            self.send_error(404)
            return
        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        EmbedHandler.received.extend(texts)
        if self.mode == "slow":
            time.sleep(1.5)
        if self.mode == "garbage":
            body = b"this is not json"
        elif self.mode == "wrong_count":
            body = json.dumps({"vectors": [[1.0, 2.0]]}).encode()
        elif self.mode == "ragged":
            body = json.dumps({"vectors": [[1.0, 2.0], [1.0]][: len(texts)]}).encode()
        elif self.mode == "missing_key":
            body = json.dumps({"embeddings": []}).encode()
        elif self.mode == "raw":
            body = self.payload
        elif self.mode == "payload":
            body = json.dumps({"vectors": [self.payload for _ in texts]}).encode()
        elif self.mode == "wider":
            body = json.dumps({"vectors": [[1.0, 2.0, 3.0] for _ in texts]}).encode()
        else:
            vectors = [
                [float(len(tokenize(t))), float(sum(len(w) for w in tokenize(t)))] for t in texts
            ]
            body = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def embed_server():
    """The URL of a local embedding service that serves EmbedHandler's vectors."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    EmbedHandler.mode = "ok"
    EmbedHandler.received = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join(timeout=2)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid or "::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            # a test that errored in setup may also appear as failed; keep the worst
            if outcomes.get(name) != "failed":
                outcomes[name] = "failed" if status in ("failed", "error") else status
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(outcomes):
        verdict = "PASS" if outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
