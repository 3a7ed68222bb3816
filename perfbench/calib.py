"""A fixed calibration workload: how fast is this CPU right now?

On the shared 2-vCPU Xeon VM this benchmark was built on, whose cores other
tenants use too, the same pure-Python loop takes anywhere from 23 to 44 ms
from one tenth of a second to the next. CPU time per search moves with it. So
every measured segment is bracketed by this calibration, run on the same
CPU, and its CPU time is scaled to a reference core: one on which the
calibration takes ``REFERENCE_S`` of CPU. The work mixes interpreter
bytecode with loopback UDP system calls, like the relay's own work, and
never touches carelay code, so a change to carelay cannot move it.
"""

from __future__ import annotations

import socket
import statistics
import struct
import time

REFERENCE_S = 0.004
ROUNDS = 400
_HDR = struct.Struct(">HHHHII")
_PAD = b"\x00" * 32


class Calibrator:
    def __init__(self) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._addr = self._sock.getsockname()

    def run(self) -> float:
        """CPU seconds this thread spends on the fixed work."""
        sock, addr, table = self._sock, self._addr, {}
        start = time.thread_time()
        for i in range(ROUNDS):
            sock.sendto(_HDR.pack(6, 8, 5, 13, i, i) + _PAD, addr)
            data, source = sock.recvfrom(2048)
            fields = _HDR.unpack_from(data)
            table[fields[4] & 63] = source
            for j in range(20):
                table[j] = (j * 7) % 13 + fields[4]
        return time.thread_time() - start

    def close(self) -> None:
        self._sock.close()


def scale(*calibrations: float) -> float:
    """Factor from this CPU's seconds to reference-core seconds."""
    return REFERENCE_S / statistics.fmean(calibrations)
