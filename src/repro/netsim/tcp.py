"""Fluid-level TCP Reno congestion control.

The model advances in *rounds* of one RTT, the standard fluid approximation
for TCP throughput analysis (cf. the Mathis sqrt-law the paper's tuning
guide is based on).  Per round:

* **slow start**: congestion window doubles until it reaches ``ssthresh``;
* **congestion avoidance**: window grows by one MSS per round;
* **loss** (random or queue overflow): ``ssthresh`` drops to half the
  current window and the window deflates to ``ssthresh`` (fast recovery —
  Reno halves rather than collapsing to one segment);
* **timeout** (severe loss, modeled when the whole window is lost): window
  collapses to the initial value and slow start restarts.

The *effective* send window is ``min(cwnd, buffer)``: the socket-buffer
clamp is exactly the tuning knob studied in Figures 5 and 6.

While a flow is active its window state lives in the engine's
:class:`~repro.netsim.flowtable.FlowTable` and evolves through the tick
kernels' *inlined* copies of :meth:`TcpState.on_round` (the scalar loop
and the vectorized ``_on_round_rows``), which are required to reproduce
this method's float operations exactly — change one, change all three.
The object here is the seed state at ``open_flow`` time, the detached
state after retirement, and the reference implementation the differential
tests compare the kernels against.

A connection that is kept open between transfers keeps what it learned
about its path: :attr:`TcpState.congestion` is that knowledge as a value,
and a :class:`TcpState` built ``resume``-d from one starts where the last
transfer stopped instead of in slow start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["MSS", "TcpParams", "TcpState", "CongestionState"]


#: segment size, bytes (Ethernet)
MSS = 1460
#: initial congestion window, segments (RFC 2414 era)
INITIAL_CWND_SEGMENTS = 2


@dataclass(frozen=True)
class TcpParams:
    """Static per-connection TCP parameters: the socket buffer is the one
    a caller tunes; segment size and initial window are :data:`MSS` and
    :data:`INITIAL_CWND_SEGMENTS`."""

    buffer: int = 64 * 1024          # socket send/receive buffer clamp

    def __post_init__(self) -> None:
        if self.buffer < MSS:
            raise ValueError("buffer smaller than one MSS")


@dataclass(frozen=True)
class CongestionState:
    """What a stream has learned about its path, as a value that can
    outlive the transfer it was learned on."""

    cwnd: float
    ssthresh: float


class TcpState:
    """Mutable congestion-control state for one stream."""

    def __init__(self, params: TcpParams,
                 resume: Optional[CongestionState] = None):
        self.params = params
        self.cwnd = float(INITIAL_CWND_SEGMENTS * MSS)
        # Classic BSD behaviour: initial ssthresh is the receiver window,
        # i.e. the socket buffer — slow start runs until the buffer clamp
        # (untuned) or until the first loss (tuned, large buffer).
        self.ssthresh = float(params.buffer)
        if resume is not None:
            # a kept-open connection: whatever it is handed, it never
            # opens above its socket buffer or below a fresh connection
            initial, buffer = self.cwnd, self.ssthresh
            self.cwnd = min(max(float(resume.cwnd), initial), buffer)
            self.ssthresh = min(max(float(resume.ssthresh), initial), buffer)
        self.rounds = 0
        self.losses = 0
        self.timeouts = 0
        # hot-path constants (params is frozen, so these cannot go stale);
        # the flow table snapshots these into its columns
        self._buffer_f = float(params.buffer)
        self._buffer2 = 2.0 * self._buffer_f
        self._mss_f = float(MSS)
        self._initial_cwnd_f = float(INITIAL_CWND_SEGMENTS * MSS)

    @property
    def window(self) -> float:
        """Effective send window in bytes: min(cwnd, socket buffer)."""
        cwnd = self.cwnd
        buffer = self._buffer_f
        return cwnd if cwnd < buffer else buffer

    @property
    def congestion(self) -> CongestionState:
        """The window state a later stream can ``resume`` from."""
        return CongestionState(self.cwnd, self.ssthresh)

    def on_round(self, loss: bool, timeout: bool = False) -> None:
        """Advance one RTT of window evolution.

        ``loss`` marks one-or-more packet drops observed this round (Reno
        reacts once per window regardless of how many segments were hit);
        ``timeout`` marks loss of an entire window, forcing a slow-start
        restart.
        """
        mss = self._mss_f
        self.rounds += 1
        if timeout:
            self.timeouts += 1
            self.ssthresh = max(self.window / 2.0, 2.0 * mss)
            self.cwnd = self._initial_cwnd_f
            return
        if loss:
            self.losses += 1
            self.ssthresh = max(self.window / 2.0, 2.0 * mss)
            self.cwnd = self.ssthresh
            return
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            # Exponential growth, but never overshoot past ssthresh in a
            # single round by more than the doubling allows.
            cwnd = min(cwnd * 2.0, max(self.ssthresh, cwnd + mss))
        else:
            cwnd += mss
        # cwnd is never allowed to grow without bound past what the buffer
        # can use: growing it further would only inflate the next halving.
        buffer2 = self._buffer2
        self.cwnd = cwnd if cwnd < buffer2 else buffer2
