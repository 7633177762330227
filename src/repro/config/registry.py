"""The declarative registry of every ``REPRO_*`` environment variable.

Before this module, thirteen ``REPRO_*`` knobs were read ad hoc across
eight modules and documented (or not) in three separate README tables —
the classic drift recipe: a new variable lands in code, never in docs,
and nothing notices.  This registry is the single source of truth:

* every variable is declared once as an :class:`EnvVar` (name, type,
  default, owning subsystem, one-line meaning);
* readers go through :func:`env_str` / :func:`env_int` /
  :func:`env_flag`, which refuse undeclared names at call time;
* the ``procsafety/env-drift`` rule in :mod:`repro.analysis.procsafety`
  statically rejects any literal ``os.environ`` read of a ``REPRO_*``
  name that is not declared here;
* the README environment-variable table is **generated** from this
  registry (``python -m repro.config --update README.md``) and CI
  verifies it is in sync (``--check``), so the docs cannot go stale.

Adding a variable therefore takes exactly one declaration below; the
static analyzer and the docs check both fail until it exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Variable value types (documentation + helper validation).
TYPE_INT = "int"
TYPE_FLAG = "flag"       #: set to anything but ""/"0" to engage
TYPE_STR = "str"
TYPE_PATH = "path"
TYPE_CHOICE = "choice"

VALID_TYPES = (TYPE_INT, TYPE_FLAG, TYPE_STR, TYPE_PATH, TYPE_CHOICE)

#: Owning subsystems, in README table order.
SUBSYSTEMS = (
    "graphs", "bench", "perf", "engine", "store", "obs", "serve", "world",
    "select", "tests",
)


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable."""

    name: str         #: full ``REPRO_*`` name
    type: str         #: one of :data:`VALID_TYPES`
    default: str      #: human-readable default (as documented)
    subsystem: str    #: owning subsystem (one of :data:`SUBSYSTEMS`)
    description: str  #: one-line meaning for the README table

    def __post_init__(self) -> None:
        if not self.name.startswith("REPRO_"):
            raise ValueError(f"env var name must start with REPRO_: {self.name}")
        if self.type not in VALID_TYPES:
            raise ValueError(f"type must be one of {VALID_TYPES}: {self.type}")
        if self.subsystem not in SUBSYSTEMS:
            raise ValueError(
                f"subsystem must be one of {SUBSYSTEMS}: {self.subsystem}"
            )


#: Every REPRO_* variable the repo reads, by name.  Keep alphabetical
#: within a subsystem; the README table groups by subsystem.
ENV_VARS: dict[str, EnvVar] = {
    v.name: v
    for v in (
        # -- graphs ------------------------------------------------------
        EnvVar(
            "REPRO_MAX_EDGES", TYPE_INT, "1500000", "graphs",
            "edge cap for the scaled Table-II datasets",
        ),
        EnvVar(
            "REPRO_CACHE_DIR", TYPE_PATH, "~/.cache/repro-graphs", "graphs",
            "on-disk cache for generated graphs",
        ),
        # -- bench -------------------------------------------------------
        EnvVar(
            "REPRO_SUBGRAPHS", TYPE_INT, "96", "bench",
            "graph-sampling dataset size (paper: 838)",
        ),
        EnvVar(
            "REPRO_RESULTS_DIR", TYPE_PATH, "./results", "bench",
            "where experiment reports and manifests are written",
        ),
        # -- perf --------------------------------------------------------
        EnvVar(
            "REPRO_NO_ESTIMATE_CACHE", TYPE_FLAG, "off", "perf",
            "set to `1` to bypass the estimate memo cache",
        ),
        EnvVar(
            "REPRO_ESTIMATE_CACHE_DIR", TYPE_PATH, "memory only", "perf",
            "optional on-disk layer for estimate entries",
        ),
        EnvVar(
            "REPRO_ESTIMATE_CACHE_SIZE", TYPE_INT, "4096", "perf",
            "in-process estimate-cache LRU capacity (entries)",
        ),
        # -- engine ------------------------------------------------------
        EnvVar(
            "REPRO_JOBS", TYPE_INT, "1", "engine",
            "worker processes for bench sweeps, fig12 and the world sweep "
            "(`1` serial, `auto`/`0` = cpu count)",
        ),
        EnvVar(
            "REPRO_NO_PLAN_CHECK", TYPE_FLAG, "off", "engine",
            "set to `1` to skip per-sweep-point kernel plan checking",
        ),
        # -- store -------------------------------------------------------
        EnvVar(
            "REPRO_NO_SHARED_STORE", TYPE_FLAG, "off", "store",
            "set to `1` to disable the shared store (executors revert to "
            "pickling matrices)",
        ),
        EnvVar(
            "REPRO_STORE_BACKEND", TYPE_CHOICE, "shm", "store",
            "`shm` (POSIX shared memory) or `mmap` (files under "
            "`REPRO_STORE_DIR`); `shm` degrades to `mmap` automatically",
        ),
        EnvVar(
            "REPRO_STORE_DIR", TYPE_PATH, "per-pid tempdir", "store",
            "directory for `mmap`-backend segment files",
        ),
        # -- obs ---------------------------------------------------------
        EnvVar(
            "REPRO_TRACE", TYPE_STR, "off", "obs",
            "`1` = trace to `repro-trace.json`; any other non-empty value "
            "= trace to that path",
        ),
        # -- serve -------------------------------------------------------
        EnvVar(
            "REPRO_SERVE_HOST", TYPE_STR, "127.0.0.1", "serve",
            "bind/connect address for the socket front end",
        ),
        EnvVar(
            "REPRO_SERVE_PORT", TYPE_INT, "0", "serve",
            "socket front-end TCP port (`0` = OS-assigned ephemeral)",
        ),
        EnvVar(
            "REPRO_SERVE_QUEUE_HIGH", TYPE_INT, "512", "serve",
            "queue-depth watermark above which the front end load-sheds "
            "(`STATUS_SHED` + retry hint) instead of enqueueing",
        ),
        EnvVar(
            "REPRO_SERVE_ACCEPT_BACKLOG", TYPE_INT, "128", "serve",
            "TCP accept backlog for the socket front end's listener",
        ),
        EnvVar(
            "REPRO_SERVE_MAX_FRAME", TYPE_INT, "8388608", "serve",
            "largest accepted wire frame in bytes (guards the length "
            "prefix against garbage/hostile peers)",
        ),
        # -- world -------------------------------------------------------
        EnvVar(
            "REPRO_WORLD_SAMPLES", TYPE_INT, "64", "world",
            "default sampled-config count for `python -m repro.world`",
        ),
        EnvVar(
            "REPRO_WORLD_SEED", TYPE_INT, "0", "world",
            "universe sampling seed (same seed = identical config list)",
        ),
        EnvVar(
            "REPRO_WORLD_MAX_NODES", TYPE_INT, "2048", "world",
            "upper bound of the sampled size axis (log-uniform strata)",
        ),
        EnvVar(
            "REPRO_WORLD_K", TYPE_INT, "32", "world",
            "feature width the world sweep estimates every kernel at",
        ),
        # -- select ------------------------------------------------------
        EnvVar(
            "REPRO_SELECT_MODEL", TYPE_PATH, "packaged default model",
            "select",
            "selection-model JSON the active policy loads (default: the "
            "in-repo model fit from the seed-0 240-config universe)",
        ),
        EnvVar(
            "REPRO_SELECT_TOPK", TYPE_INT, "3", "select",
            "predicted-frontier width: candidates kept per graph when a "
            "caller asks for the top-k predicted configs",
        ),
        EnvVar(
            "REPRO_NO_SELECT", TYPE_FLAG, "off", "select",
            "set to `1` to disable the selection policy everywhere "
            "(callers use their historical full-sweep/EWMA paths)",
        ),
        # -- tests -------------------------------------------------------
        EnvVar(
            "REPRO_NO_DURATION_BUDGET", TYPE_FLAG, "off", "tests",
            "set to `1` to disable the test-suite duration budget",
        ),
    )
}


def declared(name: str) -> bool:
    """True when ``name`` is a registered ``REPRO_*`` variable."""
    return name in ENV_VARS


def _require(name: str) -> EnvVar:
    var = ENV_VARS.get(name)
    if var is None:
        raise KeyError(
            f"undeclared environment variable {name!r}; declare it in "
            f"repro.config.registry.ENV_VARS (the procsafety env-drift "
            f"rule enforces this statically)"
        )
    return var


def env_str(name: str, default: str = "") -> str:
    """Raw string value of a *declared* variable (stripped)."""
    _require(name)
    return os.environ.get(name, default).strip()


def env_int(name: str, default: int) -> int:
    """Integer value of a *declared* variable; empty/unset -> default."""
    _require(name)
    raw = os.environ.get(name, "").strip()
    if not raw:
        return int(default)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer; got {raw!r}"
        ) from None


def env_flag(name: str) -> bool:
    """True when a *declared* flag variable is set to anything but 0.

    The repo-wide flag convention: unset, empty, and ``"0"`` mean *off*;
    any other value means *on*.
    """
    _require(name)
    return os.environ.get(name, "").strip() not in ("", "0")


# ----------------------------------------------------------------------
# README table generation
# ----------------------------------------------------------------------

#: Markers delimiting the generated block in README.md.
TABLE_BEGIN = "<!-- env-table:begin (generated by `python -m repro.config --update README.md`; do not edit by hand) -->"
TABLE_END = "<!-- env-table:end -->"


def render_markdown_table() -> str:
    """The README environment-variable table, grouped by subsystem."""
    lines = [
        "| variable | subsystem | type | default | meaning |",
        "|---|---|---|---|---|",
    ]
    for subsystem in SUBSYSTEMS:
        rows = [v for v in ENV_VARS.values() if v.subsystem == subsystem]
        for v in sorted(rows, key=lambda v: v.name):
            lines.append(
                f"| `{v.name}` | {v.subsystem} | {v.type} "
                f"| {v.default} | {v.description} |"
            )
    return "\n".join(lines)


def render_readme_block() -> str:
    """The full generated block, markers included."""
    return f"{TABLE_BEGIN}\n{render_markdown_table()}\n{TABLE_END}"


def readme_block_in_sync(readme_text: str) -> bool:
    """True when ``readme_text`` contains the current generated block."""
    return render_readme_block() in readme_text


def update_readme(readme_text: str) -> str:
    """``readme_text`` with the block between the markers regenerated.

    Raises :class:`ValueError` when the markers are missing or out of
    order — the table's home in the README must exist before it can be
    refreshed.
    """
    begin = readme_text.find(TABLE_BEGIN)
    end = readme_text.find(TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            "README has no env-table markers; add the "
            "`<!-- env-table:begin ... -->` / `<!-- env-table:end -->` "
            "pair where the table should live"
        )
    return (
        readme_text[:begin] + render_readme_block()
        + readme_text[end + len(TABLE_END):]
    )
