"""OP-level code generation: layout, lowering, and the global image."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "repro.compiler.codegen.layout": (
        "CoreStageLayout", "InputBuffer", "SegmentAllocator",
        "build_core_layout",
    ),
    "repro.compiler.codegen.lowering": (
        "ProgramGenerator", "build_global_image",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:  # the table above, spelled out for static tools
    from repro.compiler.codegen.layout import (
        CoreStageLayout,
        InputBuffer,
        SegmentAllocator,
        build_core_layout,
    )
    from repro.compiler.codegen.lowering import (
        ProgramGenerator,
        build_global_image,
    )

__all__ = [
    "SegmentAllocator",
    "InputBuffer",
    "CoreStageLayout",
    "build_core_layout",
    "ProgramGenerator",
    "build_global_image",
]
