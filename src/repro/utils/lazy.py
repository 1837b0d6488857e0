"""PEP 562 lazy package exports, written once.

A package ``__init__`` that imports its submodules eagerly makes every
user of one name pay for all of them (``import repro`` used to load
numpy, the compiler and both simulators to print ``--help``).  Packages
here declare *where* their public names live instead and resolve them on
first access; ``docs/ARCHITECTURE.md`` ("Import layering") has the rules.
"""

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: dict, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` / ``__dir__`` resolving names on first use.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    module path to the public names it defines.  The first access of a
    name imports its module and binds the value in the package, so the
    hook runs once per name.  A name outside the table that is a
    submodule of the package (``repro.serve``) is imported the same way;
    anything else is the ordinary :class:`AttributeError`.
    """
    package = namespace["__name__"]
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        if name in origin:
            value = getattr(importlib.import_module(origin[name]), name)
        elif name.startswith("_"):  # dunder probes never name a submodule
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise  # the submodule exists; an import inside it failed
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
