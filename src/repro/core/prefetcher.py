"""The AMPoM prefetcher — the Algorithm-1 driver (paper section 3).

On every page fault of the migrant the prefetcher:

1. records the fault in the lookback window (``W``, ``T``, ``C``);
2. computes the spatial locality score ``S`` (eq. 1);
3. derives the paging rate ``r`` and the horizon ``t = 2*t0 + td + 1/r``
   from the window and the oM_infoD measurements;
4. sizes the dependent zone ``N = (c'/c) * S * r * t`` (eq. 3);
5. selects the dependent pages from the outstanding-stream pivots
   (section 3.4);
6. returns the subset that is neither local nor already on the wire, which
   the executor sends to the origin node as the prefetch part of the
   paging request.

The prefetcher is deliberately free of any network/simulator dependency:
it consumes a :class:`repro.core.policy.LinkConditions` snapshot, which
makes it directly unit-testable and reusable outside the DES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import AMPoMConfig, HardwareSpec
from ..errors import NetworkError
from .incremental import IncrementalWindow
from .policy import LinkConditions
from .zone import clamp_zone_size, readahead_fallback, select_from_streams

if TYPE_CHECKING:  # pragma: no cover
    from ..mem.residency import ResidencyTracker


@dataclass(slots=True)
class PrefetchTrace:
    """Diagnostics of the most recent dependent-zone analysis.

    The prefetcher reuses one instance across faults (updated in place);
    copy it if you need to keep a snapshot."""

    score: float = 0.0
    paging_rate: float = 0.0
    horizon: float = 0.0
    zone_size: int = 0
    outstanding_streams: int = 0
    requested: int = 0


class AMPoMPrefetcher:
    """Adaptive memory prefetching, per faulting process."""

    #: The dependent-zone analysis consumes the oM_infoD link snapshot
    #: (``td`` and ``2*t0`` in eq. 3), so the executor must sample it.
    needs_conditions = True

    def __init__(
        self,
        config: AMPoMConfig,
        hardware: HardwareSpec,
        address_limit: int,
    ) -> None:
        self.config = config
        self.hardware = hardware
        self.address_limit = address_limit
        #: Sliding-window state: the lookback window W/T/C plus the
        #: incrementally maintained page-position index, stride counts and
        #: outstanding-stream inputs (see repro.core.incremental).
        self.window = IncrementalWindow(config.lookback_length, config.dmax)
        self.name = "ampom"
        # Modeled analysis cost charged to the simulated migrant: the
        # paper's kernel implementation walks the window once per stride
        # distance, so its cost scales with l * dmax; the hardware constant
        # is calibrated at the paper's parameters (l=20, dmax=4).  This is
        # the *simulated* figure-11 overhead and stays pinned to the
        # paper's measured implementation regardless of how fast our own
        # (incremental) analysis runs.
        reference_work = 20 * 4
        work = config.lookback_length * config.dmax
        self.analysis_time = hardware.analysis_time_per_fault * work / reference_work
        self.last_trace = PrefetchTrace()
        #: Cumulative analyses performed (equals faults consulted).
        self.analyses = 0
        #: Optional :class:`repro.check.DifferentialOracle`; when set,
        #: every analysis is re-derived from the paper's equations by a
        #: brute-force reference and any disagreement raises
        #: :class:`repro.errors.InvariantViolation`.  Pure observer: the
        #: returned prefetch set is unaffected.
        self.check_oracle = None

    def on_fault(
        self,
        vpn: int,
        now: float,
        cpu_share: float,
        residency: "ResidencyTracker",
        conditions: LinkConditions,
    ) -> list[int]:
        """Run one dependent-zone analysis; return pages to prefetch."""
        cfg = self.config
        window = self.window
        window.record(vpn, now, cpu_share)
        self.analyses += 1

        # Eq. 1 and the stream analysis come straight from the window's
        # incremental state — no per-fault index rebuild or window rescan.
        score = window.locality_score()
        rate = window.paging_rate(cfg.initial_paging_interval)
        if not conditions.available_bw_bps > 0.0:
            raise NetworkError(
                f"available bandwidth must be positive: {conditions.available_bw_bps}"
            )
        td = self.hardware.page_size / conditions.available_bw_bps
        # Eq. 3's horizon t = 2*t0 + td + 1/r and zone size N, clamped to
        # the configured band (rtt/td/rate are measured non-negative and
        # the band is checked when the config is built).
        horizon = conditions.rtt_s + td + 1.0 / rate

        c = window.mean_cpu()
        c_next = window.last_cpu()
        cpu_ratio = (c_next / c) if c > 1e-9 else 1.0

        zone = cpu_ratio * score * rate * horizon
        n = clamp_zone_size(zone, cfg.min_zone_pages, cfg.max_zone_pages)
        streams = window.outstanding_streams()
        if n <= 0:
            dependent: list[int] = []
        elif streams:
            dependent = select_from_streams(streams, n, self.address_limit)
        else:
            dependent = readahead_fallback(window.last_page, n, self.address_limit)
        if self.check_oracle is not None:
            self.check_oracle.verify_analysis(
                pages=window.pages,
                dmax=cfg.dmax,
                score=score,
                paging_rate=rate,
                horizon=horizon,
                rtt_s=conditions.rtt_s,
                page_transfer_time=td,
                times=window.times,
                cpus=window.cpus,
                fallback_interval=cfg.initial_paging_interval,
                cpu_ratio=cpu_ratio,
                zone_size=n,
                max_pages=cfg.max_zone_pages,
                min_pages=cfg.min_zone_pages,
                streams=streams,
                dependent=dependent,
                address_limit=self.address_limit,
            )
        # Only pages still stored at the origin can be requested (a page in
        # the dependent zone that is local, buffered, in flight, or not yet
        # created consumes zone quota but is not put on the wire).  The
        # dependent pages lie in [0, address_limit); a tracker narrower
        # than that holds none of the pages past its end.
        remote = residency.remote_flags
        if len(remote) < self.address_limit:
            dependent = [p for p in dependent if p < len(remote)]
        requested = [p for p in dependent if p != vpn and remote[p]]

        trace = self.last_trace
        trace.score = score
        trace.paging_rate = rate
        trace.horizon = horizon
        trace.zone_size = n
        trace.outstanding_streams = len(streams)
        trace.requested = len(requested)
        return requested
