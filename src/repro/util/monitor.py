"""Live campaign monitor for the multi-run reduction loop.

A multi-hour CORELLI campaign (the paper's 373-file Benzil sweep) needs
*liveness* observability, not just post-hoc traces: which rank is on
which run, whether any rank has silently stalled, and when the campaign
will finish.  This module is the in-process side of that story:

* **per-rank heartbeat gauges** — runs completed, events processed,
  the current site (``run:<i>/<stage>``), and a last-progress
  timestamp, updated from inside the ``cross_section`` loop;
* a **stall detector** — :meth:`CampaignMonitor.stalled_ranks` flags
  ranks whose last heartbeat is older than a deadline while they still
  have work (the symptom of a hung I/O or a livelocked kernel);
* an **ETA estimator** — realized runs/second over the campaign so far,
  extrapolated over the remaining runs;
* **recovery visibility** — quarantined / resumed runs and crashed
  ranks (PR 3's dispositions) appear in the same snapshot, so a
  degraded campaign is visible *while it happens*, not at the end;
* an **OpenMetrics/Prometheus text writer** — ``--metrics-file`` makes
  the reduction atomically rewrite a ``.prom`` exposition file
  (:mod:`repro.util.atomic_io`) on every progress event, which any
  node-exporter textfile collector or ``repro perf watch`` can scrape.

Monitoring is **opt-in** exactly like tracing: the process default is
:data:`DISABLED` (a null monitor whose methods are no-ops) and the
instrumented loop guards on :attr:`CampaignMonitor.enabled`, so the
fail-fast path stays untouched unless a monitor is installed::

    monitor = CampaignMonitor(label="benzil", metrics_path="live.prom")
    with use_monitor(monitor):
        workflow.run()
    print(monitor.snapshot())
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.util import atomic_io
from repro.util.validation import ReproError

#: metric-name prefix of every exposition line
METRIC_PREFIX = "repro"

#: default stall deadline (seconds without progress while active)
DEFAULT_STALL_DEADLINE = 30.0


class MonitorError(ReproError):
    """Monitor misuse or an unreadable metrics file."""


@dataclass
class RankState:
    """One rank's live progress."""

    rank: int
    runs_assigned: int = 0
    runs_completed: int = 0
    runs_quarantined: int = 0
    runs_resumed: int = 0
    #: (run, stage) cells this rank stole from another rank's queue
    steals: int = 0
    events_processed: float = 0.0
    current_run: int = -1
    current_site: str = ""
    #: unix timestamp of the last progress event
    last_progress: float = 0.0
    #: "active" | "crashed" | "done"
    status: str = "active"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "runs_assigned": self.runs_assigned,
            "runs_completed": self.runs_completed,
            "runs_quarantined": self.runs_quarantined,
            "runs_resumed": self.runs_resumed,
            "steals": self.steals,
            "events_processed": self.events_processed,
            "current_run": self.current_run,
            "current_site": self.current_site,
            "last_progress": self.last_progress,
            "status": self.status,
        }


class CampaignMonitor:
    """Thread-safe live state of one reduction campaign.

    The in-process MPI ranks (``run_world`` threads) all report into
    one monitor; every mutator takes the lock, and every mutator
    refreshes the rank's ``last_progress`` stamp (that is what makes
    the stall detector meaningful).  ``clock`` is injectable so the
    stall/ETA tests need no real sleeping.
    """

    enabled = True

    def __init__(
        self,
        label: str = "",
        *,
        metrics_path: Optional[str] = None,
        stall_deadline: float = DEFAULT_STALL_DEADLINE,
        clock: Callable[[], float] = time.time,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.label = label
        self.metrics_path = metrics_path
        self.stall_deadline = float(stall_deadline)
        self._clock = clock
        self._lock = threading.Lock()
        self._ranks: Dict[int, RankState] = {}
        self.n_runs = 0
        self.world_size = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: constant labels stamped on every exported sample — the
        #: campaign service sets ``{"job": ..., "tenant": ...}`` here so
        #: one scrape distinguishes concurrent jobs
        self.labels: Dict[str, str] = {
            str(k): str(v) for k, v in (labels or {}).items()
        }
        #: ad-hoc gauges published alongside the campaign metrics
        #: (e.g. the service's ``service_queue_depth``)
        self._extra: Dict[
            Tuple[str, Tuple[Tuple[str, str], ...]], float
        ] = {}

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Publish/update an extra gauge ``repro_<name>`` in the
        exposition (sample-specific labels merge over the constant
        ones)."""
        key = (str(name), tuple(sorted(
            (str(k), str(v)) for k, v in labels.items()
        )))
        with self._lock:
            self._extra[key] = float(value)
        self._flush()

    def drop_gauge(self, name: str, **labels: str) -> None:
        """Retract an extra gauge sample (e.g. a job's previous state
        in an info-style metric)."""
        key = (str(name), tuple(sorted(
            (str(k), str(v)) for k, v in labels.items()
        )))
        with self._lock:
            self._extra.pop(key, None)

    # -- lifecycle --------------------------------------------------------
    def start_campaign(self, n_runs: int, world_size: int = 1) -> None:
        with self._lock:
            self.n_runs = max(self.n_runs, int(n_runs))
            self.world_size = max(self.world_size, int(world_size))
            if self.started_at is None:
                self.started_at = self._clock()
        self._flush()

    def finish_campaign(self) -> None:
        now = self._clock()
        with self._lock:
            self.finished_at = now
            for state in self._ranks.values():
                if state.status == "active":
                    state.status = "done"
                    state.current_site = ""
        self._flush()

    def _rank(self, rank: int) -> RankState:
        state = self._ranks.get(rank)
        if state is None:
            state = self._ranks[rank] = RankState(rank=int(rank))
        return state

    # -- heartbeats -------------------------------------------------------
    def assign_runs(self, rank: int, n: int) -> None:
        with self._lock:
            state = self._rank(rank)
            state.runs_assigned += int(n)
            state.last_progress = self._clock()

    def heartbeat(
        self,
        rank: int,
        *,
        site: Optional[str] = None,
        run: Optional[int] = None,
    ) -> None:
        """A progress pulse: the rank is alive at ``site``."""
        with self._lock:
            state = self._rank(rank)
            if site is not None:
                state.current_site = str(site)
            if run is not None:
                state.current_run = int(run)
            state.last_progress = self._clock()

    def run_completed(self, rank: int, run: int, *, events: float = 0.0) -> None:
        with self._lock:
            state = self._rank(rank)
            state.runs_completed += 1
            state.events_processed += float(events)
            state.current_run = int(run)
            state.current_site = ""
            state.last_progress = self._clock()
        self._flush()

    # -- recovery visibility (PR 3 integration) ---------------------------
    def record_quarantine(self, rank: int, run: int) -> None:
        with self._lock:
            state = self._rank(rank)
            state.runs_quarantined += 1
            state.current_site = f"quarantined:run:{int(run)}"
            state.last_progress = self._clock()
        self._flush()

    def record_resume(self, rank: int, run: int) -> None:
        with self._lock:
            state = self._rank(rank)
            state.runs_resumed += 1
            state.runs_completed += 1
            state.current_run = int(run)
            state.last_progress = self._clock()
        self._flush()

    def record_crash(self, rank: int) -> None:
        with self._lock:
            state = self._rank(rank)
            state.status = "crashed"
            state.current_site = "crashed"
            state.last_progress = self._clock()
        self._flush()

    # -- elastic execution visibility (stealing executor) ------------------
    def record_steal(self, thief: int, victim: int, run: int) -> None:
        """The thief rank took a cell of ``run`` from the victim's
        queue (born helper ranks report like any other rank — their
        RankState is created on first contact)."""
        with self._lock:
            state = self._rank(thief)
            state.steals += 1
            state.current_site = f"steal:run:{int(run)}<-rank:{int(victim)}"
            state.last_progress = self._clock()
        self._flush()

    # -- derived views ----------------------------------------------------
    @property
    def ranks(self) -> List[RankState]:
        with self._lock:
            return [self._ranks[r] for r in sorted(self._ranks)]

    @property
    def runs_completed(self) -> int:
        with self._lock:
            return sum(s.runs_completed for s in self._ranks.values())

    @property
    def events_processed(self) -> float:
        with self._lock:
            return sum(s.events_processed for s in self._ranks.values())

    def stalled_ranks(
        self,
        deadline: Optional[float] = None,
        *,
        now: Optional[float] = None,
    ) -> List[int]:
        """Ranks still active whose last progress is older than the
        deadline — the liveness alarm of the campaign."""
        limit = self.stall_deadline if deadline is None else float(deadline)
        t = self._clock() if now is None else float(now)
        out = []
        with self._lock:
            if self.finished_at is not None:
                return []
            for rank in sorted(self._ranks):
                state = self._ranks[rank]
                if state.status != "active":
                    continue
                if state.last_progress and t - state.last_progress > limit:
                    out.append(rank)
        return out

    def eta_seconds(self, *, now: Optional[float] = None) -> Optional[float]:
        """Remaining seconds from the realized runs/second so far.

        None until at least one run completed (no throughput sample
        yet); 0.0 once everything is done.
        """
        t = self._clock() if now is None else float(now)
        with self._lock:
            done = sum(s.runs_completed for s in self._ranks.values())
            quarantined = sum(s.runs_quarantined for s in self._ranks.values())
            accounted = done + quarantined
            remaining = max(self.n_runs - accounted, 0)
            if remaining == 0:
                return 0.0
            if done == 0 or self.started_at is None:
                return None
            elapsed = max(t - self.started_at, 1e-9)
            rate = done / elapsed
            return remaining / rate if rate > 0.0 else None

    def snapshot(self) -> Dict[str, Any]:
        """The whole campaign state as one JSON-friendly dict."""
        with self._lock:
            ranks = [self._ranks[r].as_dict() for r in sorted(self._ranks)]
            done = sum(s.runs_completed for s in self._ranks.values())
            quarantined = sum(s.runs_quarantined for s in self._ranks.values())
            resumed = sum(s.runs_resumed for s in self._ranks.values())
            steals = sum(s.steals for s in self._ranks.values())
            crashed = sorted(r for r, s in self._ranks.items()
                             if s.status == "crashed")
            events = sum(s.events_processed for s in self._ranks.values())
            started = self.started_at
            finished = self.finished_at
            n_runs = self.n_runs
        return {
            "label": self.label,
            "n_runs": n_runs,
            "runs_completed": done,
            "runs_quarantined": quarantined,
            "runs_resumed": resumed,
            "steals": steals,
            "events_processed": events,
            "crashed_ranks": crashed,
            "stalled_ranks": self.stalled_ranks(),
            "eta_seconds": self.eta_seconds(),
            "started_at": started,
            "finished_at": finished,
            "ranks": ranks,
        }

    # -- OpenMetrics exposition -------------------------------------------
    def openmetrics(self) -> str:
        """Prometheus/OpenMetrics text exposition of the snapshot.

        Every sample carries the monitor's constant ``labels`` (job /
        tenant in service mode) merged with sample-specific ones.
        """
        snap = self.snapshot()
        p = METRIC_PREFIX
        lines: List[str] = []

        def esc(v: object) -> str:
            # label-value escaping per the Prometheus exposition spec:
            # backslash first, then quote, then raw newlines
            return (str(v).replace("\\", "\\\\").replace('"', '\\"')
                    .replace("\n", "\\n"))

        def labelstr(*pairs: Tuple[str, object]) -> str:
            merged = dict(self.labels)
            merged.update({k: str(v) for k, v in pairs})
            if not merged:
                return ""
            body = ",".join(
                f'{k}="{esc(v)}"' for k, v in sorted(merged.items())
            )
            return "{" + body + "}"

        def gauge(name: str, help_: str) -> None:
            lines.append(f"# HELP {p}_{name} {help_}")
            lines.append(f"# TYPE {p}_{name} gauge")

        base = labelstr()
        gauge("campaign_runs_total", "runs in this campaign")
        lines.append(f"{p}_campaign_runs_total{base} {snap['n_runs']}")
        gauge("campaign_runs_completed", "runs completed across ranks")
        lines.append(
            f"{p}_campaign_runs_completed{base} {snap['runs_completed']}")
        gauge("campaign_runs_quarantined", "runs quarantined (degraded)")
        lines.append(
            f"{p}_campaign_runs_quarantined{base} {snap['runs_quarantined']}")
        gauge("campaign_runs_resumed", "runs replayed from checkpoints")
        lines.append(
            f"{p}_campaign_runs_resumed{base} {snap['runs_resumed']}")
        gauge("campaign_steals", "(run, stage) cells stolen across ranks")
        lines.append(f"{p}_campaign_steals{base} {snap['steals']}")
        gauge("campaign_events_processed", "events processed across ranks")
        lines.append(
            f"{p}_campaign_events_processed{base} "
            f"{snap['events_processed']:.17g}")
        eta = snap["eta_seconds"]
        gauge("campaign_eta_seconds", "estimated seconds to completion")
        lines.append(
            f"{p}_campaign_eta_seconds{base} "
            f"{eta if eta is not None else 'NaN'}")
        gauge("campaign_stalled_ranks", "ranks past the stall deadline")
        lines.append(
            f"{p}_campaign_stalled_ranks{base} {len(snap['stalled_ranks'])}")

        gauge("rank_runs_completed", "runs completed by rank")
        for r in snap["ranks"]:
            lines.append(
                f"{p}_rank_runs_completed{labelstr(('rank', r['rank']))} "
                f"{r['runs_completed']}")
        gauge("rank_steals", "(run, stage) cells stolen by rank")
        for r in snap["ranks"]:
            lines.append(
                f"{p}_rank_steals{labelstr(('rank', r['rank']))} "
                f"{r['steals']}")
        gauge("rank_events_processed", "events processed by rank")
        for r in snap["ranks"]:
            lines.append(
                f"{p}_rank_events_processed{labelstr(('rank', r['rank']))} "
                f"{r['events_processed']:.17g}")
        gauge("rank_last_progress_timestamp", "unix time of last progress")
        for r in snap["ranks"]:
            lines.append(
                f"{p}_rank_last_progress_timestamp"
                f"{labelstr(('rank', r['rank']))} "
                f"{r['last_progress']:.6f}")
        gauge("rank_info", "rank status/site (value is always 1)")
        for r in snap["ranks"]:
            lines.append(
                f"{p}_rank_info"
                f"{labelstr(('rank', r['rank']), ('status', r['status']), ('site', r['current_site']))}"
                f" 1")

        with self._lock:
            extra = dict(self._extra)
        seen: set = set()
        for (name, pairs), value in sorted(extra.items()):
            if name not in seen:
                gauge(name, "service-published gauge")
                seen.add(name)
            lines.append(f"{p}_{name}{labelstr(*pairs)} {value:.17g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write_metrics(self, path: Optional[str] = None) -> str:
        """Atomically (re)write the exposition file; returns the path."""
        target = path or self.metrics_path
        if not target:
            raise MonitorError("no metrics path configured")
        atomic_io.atomic_write_text(target, self.openmetrics())
        return str(target)

    def _flush(self) -> None:
        """Rewrite the metrics file on progress (when configured)."""
        if self.metrics_path:
            try:
                self.write_metrics()
            except OSError:  # pragma: no cover - target dir went away
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CampaignMonitor(label={self.label!r}, "
                f"runs={self.runs_completed}/{self.n_runs})")


class NullMonitor(CampaignMonitor):
    """The disabled monitor: every method is a no-op; installed as the
    process default so the reduction loop pays nothing un-monitored."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - trivially the null state
        super().__init__()

    def start_campaign(self, n_runs: int, world_size: int = 1) -> None:
        pass

    def finish_campaign(self) -> None:
        pass

    def assign_runs(self, rank: int, n: int) -> None:
        pass

    def heartbeat(self, rank: int, *, site: Optional[str] = None,
                  run: Optional[int] = None) -> None:
        pass

    def run_completed(self, rank: int, run: int, *, events: float = 0.0) -> None:
        pass

    def record_quarantine(self, rank: int, run: int) -> None:
        pass

    def record_resume(self, rank: int, run: int) -> None:
        pass

    def record_crash(self, rank: int) -> None:
        pass

    def record_steal(self, thief: int, victim: int, run: int) -> None:
        pass


#: the process-default monitor: disabled (monitoring is opt-in)
DISABLED = NullMonitor()

_active_lock = threading.Lock()
_active: CampaignMonitor = DISABLED

#: thread-local override: service jobs run in worker threads, and each
#: job's loop must report into *its own* monitor, not a process global
_thread_override = threading.local()


def active_monitor() -> CampaignMonitor:
    """The monitor the reduction loop currently reports into (a
    thread-local override installed by :func:`thread_monitor` shadows
    the process-wide one)."""
    override = getattr(_thread_override, "monitor", None)
    if override is not None:
        return override
    return _active


def set_monitor(monitor: Optional[CampaignMonitor]) -> CampaignMonitor:
    """Install the process-wide monitor (None resets to DISABLED)."""
    global _active
    with _active_lock:
        _active = monitor if monitor is not None else DISABLED
        return _active


@contextmanager
def thread_monitor(monitor: CampaignMonitor) -> Iterator[CampaignMonitor]:
    """Install ``monitor`` for the *current thread only* (per-job
    isolation in the campaign service); restores the previous override
    on exit."""
    prev = getattr(_thread_override, "monitor", None)
    _thread_override.monitor = monitor
    try:
        yield monitor
    finally:
        _thread_override.monitor = prev


@contextmanager
def use_monitor(monitor: CampaignMonitor) -> Iterator[CampaignMonitor]:
    """Install ``monitor`` for a block, restoring the previous after."""
    global _active
    with _active_lock:
        prev = _active
        _active = monitor
    try:
        yield monitor
    finally:
        with _active_lock:
            _active = prev


# ---------------------------------------------------------------------------
# reading an exposition file back (repro perf watch)
# ---------------------------------------------------------------------------

# the labels body is label="..." pairs: a `}` inside a quoted value must
# not terminate the set, so the group consumes quoted strings atomically
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?'
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(raw: str) -> str:
    """Invert the exposition escaping (``\\\\``, ``\\"``, ``\\n``).

    A sequential scan, not chained ``str.replace`` — the chained form
    mis-reads an escaped backslash followed by ``n`` (``\\\\n``) as an
    escaped newline.
    """
    out: List[str] = []
    i, n = 0, len(raw)
    while i < n:
        c = raw[i]
        if c == "\\" and i + 1 < n:
            nxt = raw[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown escape: keep verbatim (spec-lenient)
                out.append(c + nxt)
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_metrics(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse an OpenMetrics text exposition back into
    ``{metric: {labelset: value}}`` (labelset is a sorted tuple of
    ``(label, value)`` pairs; the empty tuple for unlabelled samples).
    """
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise MonitorError(f"metrics line {lineno}: unparseable: {line!r}")
        labels: List[Tuple[str, str]] = []
        if m.group("labels"):
            for lm in _LABEL_RE.finditer(m.group("labels")):
                labels.append(
                    (lm.group(1), _unescape_label_value(lm.group(2)))
                )
        raw = m.group("value")
        value = float("nan") if raw == "NaN" else float(raw)
        out.setdefault(m.group("name"), {})[tuple(sorted(labels))] = value
    return out


def watch_report(path: str) -> str:
    """One-shot terminal rendering of a metrics file (perf watch)."""
    try:
        with open(path) as fh:
            metrics = parse_metrics(fh.read())
    except OSError as exc:
        raise MonitorError(f"cannot read metrics file {path}: {exc}")

    def scalar(name: str, default: float = 0.0) -> float:
        table = metrics.get(f"{METRIC_PREFIX}_{name}", {})
        if () in table:
            return table[()]
        if len(table) == 1:  # constant job/tenant labels, still one sample
            return next(iter(table.values()))
        return default

    now = time.time()
    total = scalar("campaign_runs_total")
    done = scalar("campaign_runs_completed")
    quarantined = scalar("campaign_runs_quarantined")
    resumed = scalar("campaign_runs_resumed")
    events = scalar("campaign_events_processed")
    eta = scalar("campaign_eta_seconds", float("nan"))
    lines = [
        f"campaign: {done:.0f}/{total:.0f} runs "
        f"({quarantined:.0f} quarantined, {resumed:.0f} resumed), "
        f"{events:.6g} events",
        ("eta: n/a" if eta != eta
         else f"eta: {eta:.1f} s"),
    ]
    progress = metrics.get(f"{METRIC_PREFIX}_rank_last_progress_timestamp", {})
    completed = metrics.get(f"{METRIC_PREFIX}_rank_runs_completed", {})
    info = metrics.get(f"{METRIC_PREFIX}_rank_info", {})
    status_by_rank: Dict[str, Tuple[str, str]] = {}
    for labelset in info:
        d = dict(labelset)
        status_by_rank[d.get("rank", "?")] = (
            d.get("status", "?"), d.get("site", ""))
    if progress:
        lines.append(f"  {'rank':<6s} {'done':>6s} {'age (s)':>9s} "
                     f"{'status':<9s} site")
        for labelset in sorted(progress):
            rank = dict(labelset).get("rank", "?")
            age = now - progress[labelset]
            n_done = completed.get(labelset, 0.0)
            status, site = status_by_rank.get(rank, ("?", ""))
            lines.append(f"  {rank:<6s} {n_done:>6.0f} {age:>9.1f} "
                         f"{status:<9s} {site}")
    return "\n".join(lines)
