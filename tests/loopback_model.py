"""A loopback model server for tests: every POST gets {"text": "base station 1"}.

    python3 tests/loopback_model.py PORT_FILE [--delay SECONDS] [--one-at-a-time]

It listens on an ephemeral port of 127.0.0.1 and writes that port to PORT_FILE
atomically (through PORT_FILE.tmp), so a client that sees the file can connect.
Each POST is answered after --delay seconds (default 0.001). A GET returns the
number of POST requests received so far, as a JSON number.

With --one-at-a-time it serves one request at a time: a POST that arrives while
another is being served gets HTTP 429. It frees its slot before it replies, so
a client that waits for each reply never sees a 429.
"""

from __future__ import annotations

import argparse
import http.server
import json
import os
import threading
import time


def serve(port_file: str, delay_s: float, one_at_a_time: bool) -> None:
    busy = threading.Lock()
    received = [0]
    count_lock = threading.Lock()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            with count_lock:
                received[0] += 1
            slot = busy.acquire(blocking=False)
            json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if slot or not one_at_a_time:
                time.sleep(delay_s)  # the model's own time, so overlapping requests collide
                status, payload = 200, {"text": "base station 1"}
            else:
                status, payload = 429, {}
            if slot:
                busy.release()
            self.reply(status, payload)

        def do_GET(self):
            with count_lock:
                self.reply(200, received[0])

        def reply(self, status: int, payload) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    with open(port_file + ".tmp", "w") as f:
        f.write(str(server.server_port))
    os.replace(port_file + ".tmp", port_file)
    server.serve_forever()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("port_file")
    parser.add_argument("--delay", type=float, default=0.001, help="seconds before each reply")
    parser.add_argument("--one-at-a-time", action="store_true",
                        help="answer HTTP 429 to a request that overlaps another")
    args = parser.parse_args()
    serve(args.port_file, args.delay, args.one_at_a_time)


if __name__ == "__main__":
    main()
