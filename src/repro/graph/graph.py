"""The computation graph: a DAG of operators over named tensors."""

from collections import deque
from typing import Dict, List, Optional

from repro.errors import GraphError
from repro.graph.ops import Operator, OpKind
from repro.graph.tensor import TensorInfo


class ComputationGraph:
    """A directed acyclic graph of :class:`Operator` nodes.

    Tensors are identified by name; each tensor has exactly one producer
    (graph inputs are produced by explicit ``INPUT`` operators) and any
    number of consumers.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.tensors: Dict[str, TensorInfo] = {}
        self.operators: List[Operator] = []
        self._producer: Dict[str, Operator] = {}
        self.outputs: List[str] = []

    # --- construction ------------------------------------------------------
    def add_tensor(self, info: TensorInfo) -> TensorInfo:
        if info.name in self.tensors:
            raise GraphError(f"duplicate tensor {info.name!r}")
        self.tensors[info.name] = info
        return info

    def add_operator(self, op: Operator) -> Operator:
        if any(existing.name == op.name for existing in self.operators):
            raise GraphError(f"duplicate operator {op.name!r}")
        for tensor in op.inputs:
            if tensor not in self.tensors:
                raise GraphError(f"{op.name}: unknown input tensor {tensor!r}")
        if op.output in self._producer:
            raise GraphError(f"{op.name}: tensor {op.output!r} already produced")
        if op.output not in self.tensors:
            raise GraphError(f"{op.name}: output tensor {op.output!r} undeclared")
        self.operators.append(op)
        self._producer[op.output] = op
        return op

    def mark_output(self, tensor: str) -> None:
        if tensor not in self.tensors:
            raise GraphError(f"unknown output tensor {tensor!r}")
        if tensor not in self.outputs:
            self.outputs.append(tensor)

    # --- queries -----------------------------------------------------------
    def tensor(self, name: str) -> TensorInfo:
        try:
            return self.tensors[name]
        except KeyError:
            raise GraphError(f"unknown tensor {name!r}") from None

    def operator(self, name: str) -> Operator:
        for op in self.operators:
            if op.name == name:
                return op
        raise GraphError(f"unknown operator {name!r}")

    def producer(self, tensor: str) -> Optional[Operator]:
        """The operator producing ``tensor`` (None for dangling tensors)."""
        return self._producer.get(tensor)

    def consumers(self, tensor: str) -> List[Operator]:
        """Operators consuming ``tensor``, in graph order."""
        return [op for op in self.operators if tensor in op.inputs]

    def predecessors(self, op: Operator) -> List[Operator]:
        """Producer operators of ``op``'s inputs (deduplicated, ordered)."""
        preds: List[Operator] = []
        for tensor in op.inputs:
            producer = self._producer.get(tensor)
            if producer is not None and producer not in preds:
                preds.append(producer)
        return preds

    def successors(self, op: Operator) -> List[Operator]:
        return self.consumers(op.output)

    @property
    def input_operators(self) -> List[Operator]:
        return [op for op in self.operators if op.kind is OpKind.INPUT]

    # --- structure ---------------------------------------------------------
    def topological_order(self) -> List[Operator]:
        """Kahn topological sort; raises :class:`GraphError` on cycles.

        One pass over the operators builds each tensor's consumers in
        graph order (an operator once per distinct input), so the order
        is :meth:`successors`' without rescanning the graph per node.
        """
        consumers: Dict[str, List[Operator]] = {}
        indegree: Dict[str, int] = {}
        for op in self.operators:
            inputs = dict.fromkeys(op.inputs)
            for tensor in inputs:
                consumers.setdefault(tensor, []).append(op)
            indegree[op.name] = sum(
                1 for tensor in inputs if tensor in self._producer
            )
        by_name = {op.name: op for op in self.operators}
        ready = deque(
            op.name for op in self.operators if indegree[op.name] == 0
        )
        order: List[Operator] = []
        while ready:
            name = ready.popleft()
            op = by_name[name]
            order.append(op)
            for succ in consumers.get(op.output, ()):
                indegree[succ.name] -= 1
                if indegree[succ.name] == 0:
                    ready.append(succ.name)
        if len(order) != len(self.operators):
            raise GraphError("computation graph contains a cycle")
        return order

    def validate(self) -> None:
        """Check the graph is a well-formed DAG with complete shapes."""
        if not self.input_operators:
            raise GraphError("graph has no INPUT operator")
        if not self.outputs:
            raise GraphError("graph has no marked outputs")
        self.topological_order()
        for op in self.operators:
            if op.output not in self.tensors:
                raise GraphError(f"{op.name}: missing output tensor info")

    def mvm_operators(self) -> List[Operator]:
        """The MVM-based operators, in topological order."""
        return [op for op in self.topological_order() if op.is_mvm]

    def total_weight_bytes(self) -> int:
        """Total parameter footprint of the model."""
        return sum(op.weight_bytes() for op in self.operators)

    def summary(self) -> str:
        """A short human-readable description."""
        mvm = len(self.mvm_operators())
        return (
            f"{self.name}: {len(self.operators)} operators ({mvm} MVM), "
            f"{len(self.tensors)} tensors, "
            f"{self.total_weight_bytes() / 1024:.1f} KiB weights"
        )
