"""JSON-lines TCP front end for :class:`~repro.service.PredictionService`.

One request per line, one response per line, UTF-8 JSON both ways — the
simplest protocol a shell script, a scheduler hook, or ``nc`` can speak,
with no dependencies beyond the stdlib.  Requests are objects with an
``op`` field; responses echo ``{"ok": true, ...}`` or
``{"ok": false, "error": kind, "message": ...}``.

Operations
----------
``ping``                     liveness check.
``submit|start|finish``      one scheduler event (``job`` object or
                             ``job_id``, plus ``now``).
``tick``                     advance the clock with no job event.
``events``                   a batch of events, applied in order.
``predict``                  single wait query (``job_id``).
``predict_batch``            many waits (``job_ids`` or all queued).
``state``                    clock, epoch, queued/running ids.
``stats``                    metrics snapshot (counters, latency
                             histogram).
``shutdown``                 stop the server loop.

A ``threading.Lock`` serializes all service access, so the threaded
server stays correct without the service itself being thread-safe.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any

from repro.service.service import PredictionService, UnknownJobError
from repro.workloads.job import Job

__all__ = ["PredictionServer", "ServiceClient", "job_from_wire", "job_to_wire"]

#: Job fields carried on the wire (the prediction-relevant subset).
_JOB_FIELDS = ("job_id", "submit_time", "run_time", "nodes")
_JOB_OPTIONAL = ("user", "job_type", "queue", "job_class", "max_run_time")


def job_to_wire(job: Job) -> dict[str, Any]:
    """The JSON-safe dict form of ``job`` (prediction-relevant fields)."""
    out: dict[str, Any] = {f: getattr(job, f) for f in _JOB_FIELDS}
    for f in _JOB_OPTIONAL:
        value = getattr(job, f)
        if value is not None:
            out[f] = value
    return out


def job_from_wire(payload: dict[str, Any]) -> Job:
    """Rebuild a :class:`Job` from its wire form."""
    missing = [f for f in _JOB_FIELDS if f not in payload]
    if missing:
        raise ValueError(f"job payload missing fields: {', '.join(missing)}")
    kwargs = {f: payload[f] for f in _JOB_FIELDS}
    for f in _JOB_OPTIONAL:
        if f in payload:
            kwargs[f] = payload[f]
    return Job(**kwargs)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: PredictionServer = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                response = server.dispatch(request)
            except Exception as exc:  # malformed JSON, bad fields, ...
                response = {
                    "ok": False,
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
            self.wfile.write(json.dumps(response).encode() + b"\n")
            self.wfile.flush()
            if response.get("bye"):
                # Shut down from a fresh thread: shutdown() blocks until
                # serve_forever exits, which waits on this very handler.
                threading.Thread(target=server.shutdown, daemon=True).start()
                return


class PredictionServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server wrapping one :class:`PredictionService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], service: PredictionService
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._lock = threading.Lock()

    @property
    def port(self) -> int:
        """The bound port (useful with the ``0`` ask-the-OS address)."""
        return self.server_address[1]

    # -- request dispatch ------------------------------------------------
    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Apply one request to the service; never raises."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {
                "ok": False,
                "error": "UnknownOperation",
                "message": f"unknown op {op!r}",
            }
        try:
            with self._lock:
                return {"ok": True, **handler(request)}
        except UnknownJobError as exc:
            return {
                "ok": False,
                "error": "UnknownJobError",
                "job_id": exc.job_id,
                "message": str(exc),
            }
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": type(exc).__name__, "message": str(exc)}

    # -- operations ------------------------------------------------------
    def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _apply_event(self, event: dict) -> None:
        kind = event["event"]
        now = float(event["now"])
        if kind == "tick":
            self.service.tick(now)
        elif kind == "submit":
            self.service.submit(job_from_wire(event["job"]), now)
        elif kind == "start":
            self.service.start(int(event["job_id"]), now)
        elif kind == "finish":
            self.service.finish(int(event["job_id"]), now)
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    def _op_tick(self, request: dict) -> dict:
        self.service.tick(float(request["now"]))
        return {"epoch": self.service.epoch}

    def _op_submit(self, request: dict) -> dict:
        self.service.submit(job_from_wire(request["job"]), float(request["now"]))
        return {"epoch": self.service.epoch}

    def _op_start(self, request: dict) -> dict:
        self.service.start(int(request["job_id"]), float(request["now"]))
        return {"epoch": self.service.epoch}

    def _op_finish(self, request: dict) -> dict:
        self.service.finish(int(request["job_id"]), float(request["now"]))
        return {"epoch": self.service.epoch}

    def _op_events(self, request: dict) -> dict:
        events = request["events"]
        for event in events:
            self._apply_event(event)
        return {"applied": len(events), "epoch": self.service.epoch}

    def _op_predict(self, request: dict) -> dict:
        job_id = int(request["job_id"])
        wait = self.service.predict(job_id)
        return {"job_id": job_id, "wait": wait, "epoch": self.service.epoch}

    def _op_predict_batch(self, request: dict) -> dict:
        ids = request.get("job_ids")
        waits = self.service.predict_batch(
            None if ids is None else [int(j) for j in ids]
        )
        return {
            "waits": {str(jid): wait for jid, wait in waits.items()},
            "epoch": self.service.epoch,
        }

    def _op_state(self, request: dict) -> dict:
        svc = self.service
        return {
            "now": svc.now,
            "epoch": svc.epoch,
            "total_nodes": svc.total_nodes,
            "queued": list(svc.queued_ids),
            "running": list(svc.running_ids),
        }

    def _op_stats(self, request: dict) -> dict:
        return {"metrics": self.service.stats()}

    def _op_shutdown(self, request: dict) -> dict:
        return {"bye": True}


class ServiceClient:
    """Blocking JSON-lines client for :class:`PredictionServer`.

    Raises :class:`UnknownJobError` when the server reports one, and
    :class:`RuntimeError` for any other error response, so callers see
    the same exception surface as in-process :class:`PredictionService`
    use.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip; raises on error responses."""
        self._sock.sendall(json.dumps(request).encode() + b"\n")
        raw = self._rfile.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        response = json.loads(raw)
        if not response.get("ok"):
            if response.get("error") == "UnknownJobError":
                raise UnknownJobError(
                    int(response.get("job_id", -1)),
                    response.get("message", "unknown job"),
                )
            raise RuntimeError(
                f"{response.get('error', 'Error')}: {response.get('message', '')}"
            )
        return response

    # -- convenience wrappers -------------------------------------------
    def ping(self) -> bool:
        return bool(self.call({"op": "ping"}).get("pong"))

    def tick(self, now: float) -> None:
        self.call({"op": "tick", "now": now})

    def submit(self, job: Job, now: float) -> None:
        self.call({"op": "submit", "job": job_to_wire(job), "now": now})

    def start(self, job_id: int, now: float) -> None:
        self.call({"op": "start", "job_id": job_id, "now": now})

    def finish(self, job_id: int, now: float) -> None:
        self.call({"op": "finish", "job_id": job_id, "now": now})

    def send_events(self, events: list[dict[str, Any]]) -> int:
        return int(self.call({"op": "events", "events": events})["applied"])

    def predict(self, job_id: int) -> float:
        return float(self.call({"op": "predict", "job_id": job_id})["wait"])

    def predict_batch(
        self, job_ids: list[int] | None = None
    ) -> dict[int, float]:
        request: dict[str, Any] = {"op": "predict_batch"}
        if job_ids is not None:
            request["job_ids"] = job_ids
        waits = self.call(request)["waits"]
        return {int(jid): float(wait) for jid, wait in waits.items()}

    def state(self) -> dict[str, Any]:
        return self.call({"op": "state"})

    def stats(self) -> dict[str, Any]:
        return self.call({"op": "stats"})["metrics"]

    def shutdown(self) -> None:
        self.call({"op": "shutdown"})
