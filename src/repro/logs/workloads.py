"""Workload presets matching the paper's three evaluation traces.

Each preset returns a :class:`Workload`: the website model, a *training*
log (mined offline, as the paper's scripts mine the server's historical
logs) and an *evaluation* trace (replayed through the simulated cluster).
Training and evaluation traffic are drawn from the same site and user
population but with independent seeds, so the miners never see the exact
evaluation sequence.

Paper trace statistics reproduced (DESIGN.md §3):

* **CS department** — 27,000 requests over 4,700 files, average 12 KB,
  departmental user categories.
* **WorldCup'98** — 897,498 requests over 3,809 files, extreme
  popularity skew.  ``scale`` shrinks the request count for fast runs
  while preserving the file set and skew.
* **Synthetic** — 30,000 requests over 3,000 files, average 10 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .records import LogRecord, RequestSource
from .site import SiteSpec, Website, build_site

# The generator is imported by the preset builders alone: loading a saved
# workload needs the Workload type, not the generator.
if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .clf import CLFSource
    from .synthetic import TrafficSpec

__all__ = [
    "Workload",
    "cs_department_workload",
    "worldcup_workload",
    "synthetic_workload",
    "training_log_records",
    "WORKLOAD_PRESETS",
    "make_workload",
]


@dataclass(slots=True)
class Workload:
    """A complete experiment input: site + training log + eval trace.

    ``training_records`` is usually a materialized list; workloads loaded
    with ``load_workload(..., stream=True)`` carry a re-iterable
    :class:`~repro.logs.clf.CLFSource` instead, which mining folds
    straight off disk in constant memory.  ``trace`` is a
    :class:`~repro.logs.records.RequestSource`: usually the in-memory
    :class:`~repro.logs.records.Trace`, or a
    :class:`~repro.logs.replay.SidecarRequestSource` for streamed loads,
    which the simulator replays bit-identically without holding the
    requests.
    """

    name: str
    site: Website
    training_records: Sequence[LogRecord] | CLFSource
    trace: RequestSource

    @property
    def num_requests(self) -> int:
        return len(self.trace)

    @property
    def num_files(self) -> int:
        return self.site.num_objects

    @property
    def site_bytes(self) -> int:
        return self.site.total_bytes

    def summary(self) -> str:
        """One-line description used by the experiment harness."""
        mean = self.site_bytes / max(self.num_files, 1)
        return (
            f"{self.name}: {self.num_requests} requests, "
            f"{self.num_files} files, mean {mean / 1024:.1f} KB, "
            f"site {self.site_bytes / (1 << 20):.1f} MB"
        )


def _apply_load(
    spec: TrafficSpec,
    session_rate: float | None,
    duration_s: float | None,
    think_time_mean: float | None = None,
    max_session_pages: int | None = None,
) -> TrafficSpec:
    """Apply experiment load overrides to an eval traffic spec.

    ``session_rate`` raises concurrency (offered load); ``duration_s``
    switches to sustained-window generation, with ``num_requests``
    relaxed into a generous safety cap.  ``think_time_mean`` and
    ``max_session_pages`` shorten sessions so short measurement windows
    still see steady-state traffic.
    """
    if session_rate is not None:
        spec.session_rate = session_rate
    if think_time_mean is not None:
        spec.think_time_mean = think_time_mean
    if max_session_pages is not None:
        spec.max_session_pages = max_session_pages
    if duration_s is not None:
        spec.duration_s = duration_s
        per_session = spec.mean_session_pages * 5  # pages + embedded, rough
        spec.num_requests = max(
            spec.num_requests,
            int(spec.session_rate * duration_s * per_session * 2),
        )
    return spec


def _make(
    name: str,
    site: Website,
    eval_spec: TrafficSpec,
    train_spec: TrafficSpec,
) -> Workload:
    from .sessions import trace_from_records
    from .synthetic import TraceGenerator

    training = TraceGenerator(site, train_spec).generate_records()
    trace = trace_from_records(
        TraceGenerator(site, eval_spec).generate_records(),
        name=f"{name}-eval",
    )
    return Workload(name=name, site=site, training_records=training, trace=trace)


def _cs_department_config(
    scale: float, seed: int
) -> tuple[Website, TrafficSpec, TrafficSpec]:
    """Site + eval/training traffic specs for the CS-department preset."""
    from .synthetic import TrafficSpec

    if scale <= 0:
        raise ValueError("scale must be positive")
    site = build_site(SiteSpec(
        categories=(
            "current-students", "prospective-students",
            "faculty", "staff", "other",
        ),
        # 5 categories x 235 pages ~ 1175 pages; with ~3 embedded objects
        # per page this lands near the paper's 4,700 distinct files.
        pages_per_category=235,
        mean_embedded=3.0,
        mean_page_size=8 * 1024,
        # Mix of 8 KB pages and ~13 KB objects averages ~12 KB per file.
        mean_object_size=13 * 1024,
        links_per_page=4,
        seed=seed,
    ), name="cs-department")
    n_eval = max(200, int(27_000 * scale))
    eval_spec = TrafficSpec(
        num_requests=n_eval,
        session_rate=18.0,
        mean_session_pages=6.0,
        think_time_mean=0.8,
        category_mix={
            "current-students": 0.38, "prospective-students": 0.17,
            "faculty": 0.16, "staff": 0.12, "other": 0.17,
        },
        seed=seed + 1,
    )
    train_spec = TrafficSpec(
        num_requests=max(400, int(2 * n_eval)),
        session_rate=18.0,
        mean_session_pages=6.0,
        think_time_mean=0.8,
        category_mix=eval_spec.category_mix,
        seed=seed + 2,
    )
    return site, eval_spec, train_spec


def cs_department_workload(
    *, scale: float = 1.0, seed: int = 101,
    session_rate: float | None = None, duration_s: float | None = None,
    think_time_mean: float | None = None,
    max_session_pages: int | None = None,
) -> Workload:
    """TAMU-CS-like workload: ~27 k requests, ~4.7 k files, avg 12 KB.

    The site has the paper's five departmental user categories; traffic
    is navigation-driven, so dependency-graph mining has real structure
    to find.  ``scale`` multiplies the request count (eval and training).
    """
    site, eval_spec, train_spec = _cs_department_config(scale, seed)
    eval_spec = _apply_load(eval_spec, session_rate, duration_s,
                            think_time_mean, max_session_pages)
    return _make("cs-department", site, eval_spec, train_spec)


def _worldcup_config(
    scale: float, seed: int
) -> tuple[Website, TrafficSpec, TrafficSpec]:
    """Site + eval/training traffic specs for the WorldCup preset."""
    from .synthetic import TrafficSpec

    if scale <= 0:
        raise ValueError("scale must be positive")
    site = build_site(SiteSpec(
        categories=("scores", "teams", "news", "history"),
        # 4 x 210 pages plus ~3.5 embedded objects each ~ 3.8k files.
        pages_per_category=210,
        mean_embedded=3.5,
        mean_page_size=5 * 1024,
        mean_object_size=9 * 1024,
        links_per_page=5,
        seed=seed,
    ), name="worldcup")
    n_eval = max(500, int(897_498 * scale))
    eval_spec = TrafficSpec(
        num_requests=n_eval,
        session_rate=60.0,
        mean_session_pages=8.0,
        think_time_mean=0.5,
        zipf_alpha=1.25,
        link_follow_prob=0.6,
        seed=seed + 1,
    )
    train_spec = TrafficSpec(
        num_requests=max(1000, int(n_eval)),
        session_rate=60.0,
        mean_session_pages=8.0,
        think_time_mean=0.5,
        zipf_alpha=1.25,
        link_follow_prob=0.6,
        seed=seed + 2,
    )
    return site, eval_spec, train_spec


def worldcup_workload(
    *, scale: float = 0.05, seed: int = 202,
    session_rate: float | None = None, duration_s: float | None = None,
    think_time_mean: float | None = None,
    max_session_pages: int | None = None,
) -> Workload:
    """WorldCup'98-like workload: 3,809 files, huge request count, heavy skew.

    The full trace is 897,498 requests; the default ``scale=0.05`` keeps
    runs fast (~45 k requests) while preserving the file set and the
    Zipf popularity skew that defines this workload.  Pass ``scale=1.0``
    for the paper-size trace.
    """
    site, eval_spec, train_spec = _worldcup_config(scale, seed)
    eval_spec = _apply_load(eval_spec, session_rate, duration_s,
                            think_time_mean, max_session_pages)
    return _make("worldcup", site, eval_spec, train_spec)


def _synthetic_config(
    scale: float, seed: int
) -> tuple[Website, TrafficSpec, TrafficSpec]:
    """Site + eval/training traffic specs for the synthetic preset."""
    from .synthetic import TrafficSpec

    if scale <= 0:
        raise ValueError("scale must be positive")
    site = build_site(SiteSpec(
        categories=("a", "b", "c"),
        # 3 x 250 pages with ~3 embedded objects ~ 3k files.
        pages_per_category=250,
        mean_embedded=3.0,
        mean_page_size=7 * 1024,
        mean_object_size=11 * 1024,
        links_per_page=4,
        seed=seed,
    ), name="synthetic")
    n_eval = max(200, int(30_000 * scale))
    eval_spec = TrafficSpec(
        num_requests=n_eval,
        session_rate=20.0,
        mean_session_pages=5.0,
        think_time_mean=0.7,
        seed=seed + 1,
    )
    train_spec = TrafficSpec(
        num_requests=max(400, int(1.5 * n_eval)),
        session_rate=20.0,
        mean_session_pages=5.0,
        think_time_mean=0.7,
        seed=seed + 2,
    )
    return site, eval_spec, train_spec


def synthetic_workload(
    *, scale: float = 1.0, seed: int = 303,
    session_rate: float | None = None, duration_s: float | None = None,
    think_time_mean: float | None = None,
    max_session_pages: int | None = None,
) -> Workload:
    """The paper's synthetic trace: 30 k requests, 3 k files, avg 10 KB."""
    site, eval_spec, train_spec = _synthetic_config(scale, seed)
    eval_spec = _apply_load(eval_spec, session_rate, duration_s,
                            think_time_mean, max_session_pages)
    return _make("synthetic", site, eval_spec, train_spec)


_PRESET_CONFIGS = {
    "cs-department": _cs_department_config,
    "worldcup": _worldcup_config,
    "synthetic": _synthetic_config,
}

_PRESET_SEEDS = {"cs-department": 101, "worldcup": 202, "synthetic": 303}


def training_log_records(
    name: str, *, scale: float = 1.0, seed: int | None = None
) -> list[LogRecord]:
    """Just the training log of a preset — no eval trace is built.

    Identical to ``make_workload(name, scale=scale).training_records``
    (same site, same spec, same seed), but skips generating the usually
    larger evaluation side.  The memory benchmark uses this to write a
    large training log without paying for a trace it will not replay.
    """
    try:
        config = _PRESET_CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_PRESET_CONFIGS)}"
        ) from None
    site, _eval_spec, train_spec = config(
        scale, _PRESET_SEEDS[name] if seed is None else seed
    )
    from .synthetic import TraceGenerator
    return TraceGenerator(site, train_spec).generate_records()


WORKLOAD_PRESETS = {
    "cs-department": cs_department_workload,
    "worldcup": worldcup_workload,
    "synthetic": synthetic_workload,
}


def make_workload(name: str, **kwargs) -> Workload:
    """Build a preset workload by name (see :data:`WORKLOAD_PRESETS`)."""
    try:
        factory = WORKLOAD_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOAD_PRESETS)}"
        ) from None
    return factory(**kwargs)
