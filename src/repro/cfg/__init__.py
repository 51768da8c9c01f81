"""Control-flow graph construction over the lowered IR."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "graph": ("CFG", "Node", "SectionInfo"),
    "build": ("build_cfg", "build_cfgs"),
    "callgraph": ("CallSchedule", "build_schedule", "call_graph",
                  "tarjan_sccs"),
})
