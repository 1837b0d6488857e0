"""CG-level preprocessing: condensation and linearization (Fig. 4a, left).

The compiler "first identifies and extracts MVM-based operators, then
groups adjacent operators with them to create a condensed CG", producing
"a dependency-preserving linear sequence of operators".  Concretely:

- ``FLATTEN`` disappears: in the NHWC byte layout flattening is a no-op, so
  its output tensor is aliased to its input.
- Every MVM operator (conv / dwconv / gemm) anchors a *condensed node*;
  single-consumer elementwise successors (activations, residual adds) fuse
  into the anchor's epilogue.
- Pooling, squeeze-excite scaling and unfusable elementwise operators
  become standalone *vector nodes* executed on the vector compute unit.

The resulting :class:`CondensedGraph` is the unit of partitioning, mapping
and code generation.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import CompileError
from repro.compiler.closures import mask_nodes
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator, OpKind

#: Elementwise kinds that can ride along in an MVM epilogue.
_FUSABLE = (OpKind.RELU, OpKind.RELU6, OpKind.SILU, OpKind.SIGMOID, OpKind.ADD)


@dataclass(frozen=True)
class NodeInput:
    """One data input of a condensed node.

    ``mode`` describes how output rows map to input rows:

    - ``"window"``: sliding window with ``kernel`` / ``stride`` / ``padding``
      (convolutions, pooling);
    - ``"one2one"``: row ``y`` needs exactly input row ``y`` (elementwise,
      residual);
    - ``"full"``: every output row needs the whole input (GEMM over a
      flattened map, global pooling, broadcast scale vectors).
    """

    tensor: str
    role: str  # 'main' | 'residual' | 'scale'
    mode: str  # 'window' | 'one2one' | 'full'
    kernel: int = 1
    stride: int = 1
    padding: int = 0

    def rows_needed(self, y0: int, y1: int, in_rows: int) -> range:
        """Input row range needed to produce output rows [y0, y1)."""
        if self.mode == "full":
            return range(0, in_rows)
        if self.mode == "one2one":
            return range(y0, y1)
        lo = max(0, y0 * self.stride - self.padding)
        hi = min(in_rows, (y1 - 1) * self.stride - self.padding + self.kernel)
        return range(lo, max(lo, hi))


@dataclass
class CondensedNode:
    """An anchor operator plus its fused elementwise epilogue."""

    name: str
    anchor: Operator
    fused: List[Operator] = field(default_factory=list)
    inputs: List[NodeInput] = field(default_factory=list)
    output: str = ""
    index: int = -1

    @property
    def is_cim(self) -> bool:
        """True when the anchor maps onto CIM macro groups."""
        return self.anchor.is_mvm

    @property
    def operators(self) -> List[Operator]:
        return [self.anchor] + self.fused

    def input_by_role(self, role: str) -> Optional[NodeInput]:
        for node_input in self.inputs:
            if node_input.role == role:
                return node_input
        return None

    @property
    def main_input(self) -> NodeInput:
        node_input = self.input_by_role("main")
        if node_input is None:
            raise CompileError(f"node {self.name} has no main input")
        return node_input

    def __repr__(self) -> str:  # pragma: no cover
        tail = "+".join(op.kind.value for op in self.fused)
        return f"CondensedNode({self.name}{'+' + tail if tail else ''})"


class CondensedGraph:
    """The condensed computation graph and its linearization."""

    def __init__(self, graph: ComputationGraph):
        self.graph = graph
        self.nodes: List[CondensedNode] = []
        #: resolves flattened tensor names to their storage tensor.
        self.alias: Dict[str, str] = {}
        #: tensor name -> producing node index (for node outputs).
        self.producer_index: Dict[str, int] = {}
        #: graph input tensors (produced by INPUT operators).
        self.source_tensors: Set[str] = set()
        #: storage tensor -> number of operator inputs reading it.
        self._use_count: Dict[str, int] = {}
        #: storage tensors of the graph's marked outputs.
        self._marked_outputs: Set[str] = set()
        #: The per-node bitmasks a stage's topology is read from
        #: (:func:`repro.compiler.cost.stage_topology`), bit ``i`` =
        #: node ``i``: the producer of the node's main input (0 for a
        #: graph input), the nodes reading its output (the consumer
        #: index), and whether its output must reach global memory
        #: whatever the stage (a marked graph output, or read by no node).
        self.main_producer_bits: List[int] = []
        self.reader_masks: List[int] = []
        self.always_spills: List[bool] = []
        self._build()

    # -- construction -------------------------------------------------------
    def resolve(self, tensor: str) -> str:
        """Follow flatten aliases to the storage tensor."""
        while tensor in self.alias:
            tensor = self.alias[tensor]
        return tensor

    def _main_input_spec(self, op: Operator) -> NodeInput:
        tensor = self.resolve(op.inputs[0])
        if op.kind in (OpKind.CONV, OpKind.DWCONV):
            return NodeInput(
                tensor, "main", "window",
                op.attrs["kernel"], op.attrs["stride"], op.attrs["padding"],
            )
        if op.kind in (OpKind.MAXPOOL, OpKind.AVGPOOL):
            return NodeInput(
                tensor, "main", "window",
                op.attrs["kernel"], op.attrs["stride"], op.attrs.get("padding", 0),
            )
        if op.kind in (OpKind.GEMM, OpKind.GLOBALAVGPOOL):
            return NodeInput(tensor, "main", "full")
        return NodeInput(tensor, "main", "one2one")

    def _new_node(self, op: Operator) -> CondensedNode:
        node = CondensedNode(name=op.name, anchor=op, output=op.output)
        node.inputs.append(self._main_input_spec(op))
        if op.kind is OpKind.MUL_CHANNEL:
            node.inputs.append(
                NodeInput(self.resolve(op.inputs[1]), "scale", "full")
            )
        elif op.kind is OpKind.ADD:
            node.inputs.append(
                NodeInput(self.resolve(op.inputs[1]), "residual", "one2one")
            )
        node.index = len(self.nodes)
        self.nodes.append(node)
        self.producer_index[op.output] = node.index
        return node

    def _try_fuse(self, op: Operator) -> bool:
        """Fuse an elementwise op into the node producing one of its inputs.

        Fusion requires the candidate node's current output to feed *only*
        this operator, so fusing cannot steal a tensor other consumers need
        -- including the graph's marked outputs, which must stay
        materialised even when a single operator consumes them (sharded
        subgraphs spill them across the chip boundary).
        """
        for position, tensor in enumerate(op.inputs):
            resolved = self.resolve(tensor)
            index = self.producer_index.get(resolved)
            if index is None:
                continue
            node = self.nodes[index]
            if node.output != resolved:
                continue  # an epilogue was already appended past this tensor
            if self._use_count[resolved] != 1:
                continue
            if resolved in self._marked_outputs:
                continue  # fusing would swallow a marked graph output
            residual: Optional[str] = None
            if op.kind is OpKind.ADD:
                # The non-fused input must come from this node's past so
                # the linear order stays dependency-preserving.
                residual = self.resolve(op.inputs[1 - position])
                other_index = self.producer_index.get(residual)
                if other_index is not None and other_index > node.index:
                    continue
                if any(ni.tensor == residual for ni in node.inputs):
                    # The residual would alias an input this node already
                    # reads (e.g. add(relu(conv(x)), x)): one tensor would
                    # then feed two buffer roles of the same node, and a
                    # same-stage producer's row stream cannot serve two
                    # differently-paced readers over one channel.  Keep
                    # the add as its own node instead.
                    continue
            node.fused.append(op)
            node.output = op.output
            del self.producer_index[resolved]
            self.producer_index[op.output] = node.index
            if residual is not None:
                node.inputs.append(NodeInput(residual, "residual", "one2one"))
            return True
        return False

    def _build(self) -> None:
        order = self.graph.topological_order()
        # Aliases first: every later fact is about storage tensors.
        for op in order:
            if op.kind is OpKind.FLATTEN:
                self.alias[op.output] = self.resolve(op.inputs[0])
        self._use_count = Counter(
            self.resolve(t) for op in self.graph.operators for t in op.inputs
        )
        self._marked_outputs = {self.resolve(t) for t in self.graph.outputs}
        for op in order:
            if op.kind is OpKind.INPUT:
                self.source_tensors.add(op.output)
            elif op.kind is OpKind.FLATTEN:
                pass  # aliased above
            elif op.is_mvm:
                self._new_node(op)
            elif op.kind in _FUSABLE and self._try_fuse(op):
                pass
            else:
                self._new_node(op)
        if not self.nodes:
            raise CompileError("model contains no computation to map")
        self.reader_masks = [0] * len(self.nodes)
        for node in self.nodes:
            for producer in self.deps(node):
                self.reader_masks[producer] |= 1 << node.index
        for node in self.nodes:
            producer = self.producer_index.get(node.main_input.tensor)
            self.main_producer_bits.append(
                0 if producer is None else 1 << producer
            )
            self.always_spills.append(
                self.is_graph_output(node) or not self.reader_masks[node.index]
            )

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def deps(self, node: CondensedNode) -> Set[int]:
        """Indices of nodes whose outputs this node consumes."""
        result = set()
        for node_input in node.inputs:
            index = self.producer_index.get(node_input.tensor)
            if index is not None:
                result.add(index)
        return result

    def dep_list(self) -> List[Set[int]]:
        """deps() for every node, indexed by node position."""
        return [self.deps(node) for node in self.nodes]

    def consumers(self, node: CondensedNode) -> List[int]:
        """Indices of nodes consuming this node's output."""
        return mask_nodes(self.reader_masks[node.index])

    def is_graph_output(self, node: CondensedNode) -> bool:
        return node.output in self._marked_outputs

    def summary(self) -> str:
        cim = sum(1 for node in self.nodes if node.is_cim)
        return (
            f"{self.graph.name}: {len(self.nodes)} condensed nodes "
            f"({cim} CIM, {len(self.nodes) - cim} vector)"
        )


def condense(graph: ComputationGraph) -> CondensedGraph:
    """Preprocess a computation graph into its condensed form."""
    graph.validate()
    return CondensedGraph(graph)
