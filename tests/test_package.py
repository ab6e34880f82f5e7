"""Package surface: every name a module exports resolves, and every name it imports is used."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dtcf

# __main__ runs the command line when imported
MODULES = ["dtcf"] + sorted(m.name for m in pkgutil.iter_modules(dtcf.__path__, "dtcf.")
                            if m.name != "dtcf.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


# the constructor parameters of every Module subclass: only the top-level builders take a seed,
# since layers.draw alone gives initial values, and none takes a dtype, since layers.cast alone
# converts one; a new option shows up as a diff of this table
MODULE_PARAMETERS = {
    "AAMHead": ["n_classes", "emb_dim", "scale", "margin", "rng"],
    "ASPHead": ["in_dim", "hidden"],
    "BatchNorm2d": ["channels"],
    "BatchNormReLU2d": ["channels"],
    "Conv2dLayer": ["in_channels", "out_channels", "kernel", "stride"],
    "DTCFBlock": ["channels", "reduction"],
    "LinearLayer": ["in_features", "out_features"],
    "ResidualBlock": ["in_channels", "out_channels", "stride", "attention", "reduction"],
    "SEBlock": ["channels", "reduction"],
    "SpeakerModel": ["config", "seed"],
}


def test_module_constructor_parameters_pinned():
    from dtcf.layers import Module
    for name in MODULES:
        importlib.import_module(name)
    classes, stack = [], [Module]
    while stack:
        subclasses = [c for c in stack.pop().__subclasses__() if c.__module__.startswith("dtcf.")]
        classes += subclasses
        stack += subclasses
    table = {c.__name__: list(inspect.signature(c.__init__).parameters)[1:] for c in classes}
    assert table == MODULE_PARAMETERS


def test_perfbench_patch_points_keep_their_signatures():
    # perfbench/tracing.py replaces these methods by wrapper(bn, x, training=False) and
    # wrapper(layer, x), so a parameter added to either would never reach it; the fused
    # batchnorm+ReLU layer inherits the wrapped forward, so it may not define its own
    from dtcf.layers import BatchNorm2d, BatchNormReLU2d, Conv2dLayer
    params = inspect.signature(BatchNorm2d.forward).parameters
    assert list(params) == ["self", "x", "training"] and params["training"].default is False
    assert list(inspect.signature(Conv2dLayer.forward).parameters) == ["self", "x"]
    assert "forward" not in vars(BatchNormReLU2d)


def test_perfbench_can_wrap_the_backward_of_an_op_output():
    # perfbench/tracing.py reads `_backward` on conv and train-mode batchnorm outputs,
    # replaces it with a wrapper that calls it, and counts len(topo_order(root)); so an
    # op output's closure can be read and replaced, backward calls the replacement, and
    # topo_order is a list whose entries expose `_parents`
    import numpy as np

    from dtcf.layers import BatchNorm2d, parameter
    from dtcf.tensor import backward, conv2d, topo_order
    x = parameter(np.arange(32, dtype=np.float32).reshape(2, 1, 4, 4))
    kernels = parameter(np.ones((1, 1, 3, 3), dtype=np.float32))
    conv = conv2d(x, kernels, padding=(1, 1))
    bn = BatchNorm2d(1)
    out = bn.forward(conv, training=True)
    calls = []
    for node, name in ((conv, "conv"), (out, "bn")):
        def traced(g, bwd=node._backward, name=name):
            calls.append(name)
            bwd(g)
        node._backward = traced
    root = (out * out).sum()
    order = topo_order(root)
    # x, the kernels, the conv, gamma, beta, the batchnorm, the product and the sum
    assert isinstance(order, list) and len(order) == 8
    assert sum(len(node._parents) for node in order) == 8
    backward(root)
    assert calls == ["bn", "conv"]
    assert x.grad.shape == x.shape and kernels.grad.shape == kernels.shape


def test_a_tensor_is_built_from_its_data_alone():
    # layers.parameter alone makes a trainable leaf, and tensor._node alone an interior node
    from dtcf.tensor import Tensor
    assert list(inspect.signature(Tensor.__init__).parameters) == ["self", "data"]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(Path(dtcf.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = "import os\nfrom .tensor import Tensor, matmul\n__all__ = ['matmul']\n"
    assert _unused_imports(source) == ["os (line 1)", "Tensor (line 2)"]


def _unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """The ``_``-prefixed top-level functions and constants of the modules in ``sources``
    (file name -> source) that no module reads, calls or imports."""
    defined, used = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(name, t) for t in targets if t.startswith("_") and not t.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{name}: {helper}" for name, helper in defined if helper not in used]


def test_no_unreferenced_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(Path(dtcf.__file__).parent.glob("*.py"))}
    assert _unreferenced_helpers(sources) == []


def test_unreferenced_helper_check_sees_a_dead_helper():
    sources = {"a.py": "_K, _L = 1, 2\n__all__ = []\ndef _used(): return _K\n"
                       "def _dead(): return _used()\n",
               "b.py": "from .a import _shared\nimport a\nx = a._attr\n",
               "c.py": "def _shared(): pass\n_attr = 3\n_gone = 4\n"}
    assert _unreferenced_helpers(sources) == ["a.py: _L", "a.py: _dead", "c.py: _gone"]
