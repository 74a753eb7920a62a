"""Byte transports: ordered, lossy-tolerant streams the pipeline reads/writes.

``receive`` and ``send`` each hold one rule: finding the other end gone ends
the stream cleanly; any other failure, or a peer silent (``receive``), not
reading (``send``) or absent for 30 s, raises TransportError, as does a FIFO
writer's open that finds no reader within 30 s. Specs accepted:

    pipe        stdin/stdout (binary)
    file:PATH   regular file
    tcp:PORT    localhost TCP, PORT in 1..65535; writers listen and accept
                one client, readers connect
    PATH        any other string is opened as a device/file path
"""

from __future__ import annotations

import errno
import os
import stat
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING

from .errors import TransportError

# the tcp: helpers import socket, and ``send`` and ``receive`` import select,
# themselves: file: runs need neither, so they never pay their import
if TYPE_CHECKING:
    import socket

_RETRY_DELAY = 0.1
# seconds a read, a write, a tcp: accept, or a FIFO writer's open or tcp: connect
# (retried) waits for its peer before the stream fails. A paced writer sends each
# frame to a pipe, FIFO or device as it is made, and flushes its 8 KiB socket
# buffer about every 1.8 s at 350 Hz, so a live stream is never silent this long
_STALL_TIMEOUT = 30.0

# What a read or write raises once the other end has gone away (a closed pipe
# or socket, or a file object closed under it): the stream then ends cleanly
_PEER_GONE = (ConnectionError, ValueError)


@contextmanager
def open_transport(spec: str, mode: str):
    """Yield a binary file-like object for the given transport spec.

    ``mode`` is ``"rb"`` or ``"wb"``. A writer is flushed on exit: bytes for
    a peer gone are dropped, any other failure raises TransportError.
    """
    if mode not in ("rb", "wb"):
        raise ValueError(f"mode must be 'rb' or 'wb', got {mode!r}")
    closers = ExitStack()
    try:
        yield _open(spec, mode, closers)
    finally:
        try:
            closers.close()
        except _PEER_GONE:
            pass
        except OSError as exc:
            raise TransportError(f"closing {spec} failed: {exc}") from exc


def send(writer, data: bytes) -> bool:
    """Write ``data``; False if the reader has gone away, TransportError on any
    other OSError. A pipe, FIFO or device is written through its descriptor at
    most ``select.PIPE_BUF`` bytes at a time, each piece waited for at most
    30 s; TransportError if the reader takes none of it. A tcp: socket's own
    timeout bounds its writes."""
    try:
        if _file_type(writer) not in (stat.S_IFIFO, stat.S_IFCHR):
            writer.write(data)
            return True
        import select

        writer.flush()  # bytes a buffered write left go first
        fd, view = writer.fileno(), memoryview(data)
        while view:
            if not select.select([], [fd], [], _STALL_TIMEOUT)[1]:
                raise TransportError("write failed: timed out")
            view = view[os.write(fd, view[: select.PIPE_BUF]) :]
    except _PEER_GONE:
        return False
    except OSError as exc:
        raise TransportError(f"write failed: {exc}") from exc
    return True


def receive(reader, size: int) -> bytes:
    """Read up to ``size`` bytes; b"" at EOF or once the writer has gone away,
    TransportError on any other OSError. A reader that is not a regular file is
    waited on for at most 30 s, then gives what has arrived; TransportError if none has."""
    try:
        if _file_type(reader) in (None, stat.S_IFREG):
            return reader.read(size)
        import select

        if not select.select([reader], [], [], _STALL_TIMEOUT)[0]:
            raise TransportError("read failed: timed out")
        return reader.read1(size)
    except _PEER_GONE:
        return b""
    except OSError as exc:
        raise TransportError(f"read failed: {exc}") from exc


def _file_type(stream) -> int | None:
    """The ``stat.S_IF*`` type of the stream's descriptor; None for a stream
    without one, which is read and written as it is."""
    try:
        return stat.S_IFMT(os.fstat(stream.fileno()).st_mode)
    except (AttributeError, OSError, ValueError):
        return None


def _open(spec: str, mode: str, closers: ExitStack):
    """Open the stream for ``spec``; push what flushes and closes it on exit."""
    if spec == "pipe":
        if mode == "rb":
            return sys.stdin.buffer
        closers.callback(sys.stdout.buffer.flush)
        return sys.stdout.buffer
    if spec.startswith("tcp:"):
        try:
            port = int(spec[4:])
        except ValueError:
            port = 0
        # port 0 would listen where no reader can find it
        if not 0 < port < 65536:
            raise TransportError(f"bad TCP port in {spec!r}")
        conn = closers.enter_context(_tcp_accept(port) if mode == "wb" else _tcp_connect(port))
        return closers.enter_context(conn.makefile(mode))
    path = spec[5:] if spec.startswith("file:") else spec
    # a blocking FIFO open waits for the peer with no bound: open without waiting,
    # then block; a writer's open fails with ENXIO until a reader has the FIFO open
    opener = lambda p, flags: os.open(p, flags | os.O_NONBLOCK)
    stream = _retry(lambda: open(path, mode, opener=opener), f"cannot open {path}",
                    errno.ENXIO if mode == "wb" else None)
    os.set_blocking(closers.enter_context(stream).fileno(), True)
    return stream


def _tcp_accept(port: int) -> socket.socket:
    """Listen on localhost and return the first client's connection."""
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.settimeout(_STALL_TIMEOUT)
            server.bind(("127.0.0.1", port))
            server.listen(1)
            conn = server.accept()[0]
            conn.settimeout(_STALL_TIMEOUT)
            return conn
        except OSError as exc:
            raise TransportError(f"TCP listen on port {port} failed: {exc}") from exc


def _tcp_connect(port: int) -> socket.socket:
    """Connect to localhost, retrying until a writer listens or the stall bound passes."""
    import socket

    return _retry(lambda: socket.create_connection(("127.0.0.1", port), timeout=_STALL_TIMEOUT),
                  f"cannot connect to TCP port {port}", errno.ECONNREFUSED)


def _retry(attempt, failure: str, retried: int | None):
    """``attempt()``, again every 0.1 s for up to 30 s while it fails with errno ``retried``."""
    deadline = time.monotonic() + _STALL_TIMEOUT
    while True:
        try:
            return attempt()
        except OSError as exc:
            if exc.errno != retried or time.monotonic() >= deadline:
                raise TransportError(f"{failure}: {exc.strerror or exc}") from exc
        time.sleep(_RETRY_DELAY)
