"""File-based workflow: model description in, evaluation report out.

Mirrors the paper's Fig. 2 interface: a DNN model description file (our
ONNX-like JSON, standing in for the trained ONNX models the paper
consumes) plus an architecture configuration file go in; compilation,
cycle-accurate simulation, functional validation and a detailed report
come out.

Run:  python examples/model_file_workflow.py
"""

import tempfile
from pathlib import Path

from repro import Deployment
from repro.config import load_arch, save_arch, small_test_arch
from repro.graph import load_graph, save_graph
from repro.graph.models import tiny_cnn


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="cimflow_"))
    model_file = workdir / "tiny_cnn.json"
    arch_file = workdir / "arch.json"

    # --- produce the two input files (normally written by the user) -------
    save_graph(tiny_cnn(), model_file)
    save_arch(small_test_arch(), arch_file)
    print(f"model file: {model_file} ({model_file.stat().st_size} bytes)")
    print(f"arch file : {arch_file} ({arch_file.stat().st_size} bytes)")

    # --- the workflow: files in, report out --------------------------------
    graph = load_graph(model_file)
    arch = load_arch(arch_file)
    result = Deployment(graph, arch=arch, strategy="dp").run()

    print(f"\n{graph.summary()}")
    print(f"validated: {result.validated}\n")
    print(result.report)


if __name__ == "__main__":
    main()
