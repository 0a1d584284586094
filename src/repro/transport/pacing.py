"""Paced transmission shared by the FairQ and Tiny-Buffer senders.

:class:`PacedSender` replaces the parent's burst-the-window ``_try_send``
loop with one that spreads in-window transmissions at a pacing rate: each
sent segment pushes a ``_next_tx_time`` forward by its wire time at the
current rate, and when the window has room but the pacer says "not yet" a
timer resumes transmission exactly at the release point.  Subclasses
supply the rate via :meth:`_pacing_rate_bps`; returning ``None`` restores
the parent's unpaced burst (used e.g. once Tiny-Buffer TCP leaves slow
start and the ACK clock spaces packets naturally).

Everything is driven off scheduler time and config — no wall clock, no
RNG — so paced senders keep the simulator's bit-identical determinism
across worker counts.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import HEADER_BYTES
from repro.transport.tcp import TcpSender

__all__ = ["PacedSender"]


class PacedSender(TcpSender):
    """A :class:`TcpSender` whose new-data transmissions are paced.

    Only the in-order window loop is paced; recovery retransmissions
    (``_retransmit_hole`` and friends) stay immediate — holes are urgent
    and rare, and pacing them would just stretch loss recovery.
    """

    __slots__ = ("_next_tx_time", "_pace_timer")

    def __init__(self, host, flow, config) -> None:
        super().__init__(host, flow, config)
        self._next_tx_time = 0.0
        self._pace_timer = None

    # ------------------------------------------------------------------
    def _pacing_rate_bps(self) -> Optional[float]:
        """Current pacing rate in bits/s, or ``None`` for an unpaced burst."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        cfg = self.config
        while self.next_seq < self.size and (self.next_seq - self.snd_una) < self.cwnd:
            rate = self._pacing_rate_bps()
            now = self.scheduler.now
            if rate is not None and now < self._next_tx_time:
                if self._pace_timer is None:
                    self._pace_timer = self.scheduler.schedule_at(
                        self._next_tx_time, self._on_pace_timer
                    )
                break
            payload = min(cfg.mss, self.size - self.next_seq)
            self._transmit_segment(self.next_seq, payload)
            self.next_seq += payload
            if rate is not None:
                # Credit from the later of "now" and the previous release:
                # an idle gap is not banked into a burst.
                base = self._next_tx_time if self._next_tx_time > now else now
                self._next_tx_time = base + (payload + HEADER_BYTES) * 8.0 / rate
        if self._rto_timer is None and self.snd_una < self.next_seq:
            self._arm_timer()

    def _on_pace_timer(self) -> None:
        self._pace_timer = None
        if not self.done:
            self._try_send()

    def _finish(self) -> None:
        super()._finish()
        if self._pace_timer is not None:
            self._pace_timer.cancel()
            self._pace_timer = None
