"""MLP update functions, the two model architectures, Adam, and checkpointing."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .graph_net import AttributedGraph, GNLayerSpec, apply_layer, matrix_to_graph
from .sparse import SparseMatrixCSR, atomic_write

CHECKPOINT_FORMAT_VERSION = 1

ACTIVATIONS = ("relu", "leaky_relu", "none")
LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class LayerSpec:
    in_width: int
    out_width: int
    bias: bool = True
    activation: str = "none"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{self.activation}'")

    @property
    def param_count(self) -> int:
        return (self.in_width + (1 if self.bias else 0)) * self.out_width


@dataclass(frozen=True)
class MLPSpec:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.out_width != cur.in_width:
                raise ValueError("consecutive layer widths must chain")

    @property
    def in_width(self) -> int:
        return self.layers[0].in_width

    @property
    def out_width(self) -> int:
        return self.layers[-1].out_width

    @property
    def param_count(self) -> int:
        return sum(l.param_count for l in self.layers)


def mlp(*widths, activation="relu", final_activation="none", bias=True) -> MLPSpec:
    """Feed-forward spec: hidden layers share ``activation``, last layer differs."""
    layers = []
    for k, (a, b) in enumerate(zip(widths, widths[1:])):
        last = k == len(widths) - 2
        layers.append(LayerSpec(a, b, bias, final_activation if last else activation))
    return MLPSpec(tuple(layers))


@dataclass(frozen=True)
class ModelSpec:
    """Named collection of MLPs sharing one flat parameter vector."""

    name: str
    groups: tuple[tuple[str, MLPSpec], ...]

    @property
    def param_count(self) -> int:
        return sum(spec.param_count for _, spec in self.groups)

    def group(self, name: str) -> MLPSpec:
        for gname, spec in self.groups:
            if gname == name:
                return spec
        raise KeyError(name)


class ParamStore:
    """Flat 64-bit parameter vector with per-layer slicing for a ModelSpec."""

    def __init__(self, model: ModelSpec, values: np.ndarray | None = None):
        self.model = model
        self._slices: dict[tuple[str, int, str], tuple[slice, tuple]] = {}
        offset = 0
        for gname, spec in model.groups:
            for k, layer in enumerate(spec.layers):
                w_size = layer.in_width * layer.out_width
                self._slices[(gname, k, "W")] = (
                    slice(offset, offset + w_size), (layer.in_width, layer.out_width))
                offset += w_size
                if layer.bias:
                    self._slices[(gname, k, "b")] = (
                        slice(offset, offset + layer.out_width), (layer.out_width,))
                    offset += layer.out_width
        if values is None:
            values = np.zeros(offset)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (offset,):
            raise ValueError(f"expected {offset} parameters, got {values.shape}")
        self.values = values

    @property
    def size(self) -> int:
        return len(self.values)

    def array(self, group: str, layer: int, kind: str) -> np.ndarray:
        sl, shape = self._slices[(group, layer, kind)]
        return self.values[sl].reshape(shape)

    def replaced(self, values: np.ndarray) -> "ParamStore":
        return ParamStore(self.model, values)


class TapedParams:
    """Tape leaves for every parameter array, plus gradient repacking."""

    def __init__(self, store: ParamStore, tape: Tape):
        self.store = store
        self.tape = tape
        self.leaves: dict[tuple[str, int, str], Var] = {
            key: tape.leaf(store.array(*key)) for key in store._slices}

    def var(self, group: str, layer: int, kind: str) -> Var:
        return self.leaves[(group, layer, kind)]

    def flat_grad(self, grads: dict[int, np.ndarray]) -> np.ndarray:
        out = np.zeros(self.store.size)
        for key, var in self.leaves.items():
            sl, _ = self.store._slices[key]
            g = grads.get(var.idx)
            if g is not None:
                out[sl] = g.ravel()
        return out


def _activate_taped(x: Var, activation: str) -> Var:
    if activation == "relu":
        return ad.relu(x)
    if activation == "leaky_relu":
        return ad.leaky_relu(x, LEAKY_SLOPE)
    return x


def mlp_forward_taped(tape: Tape, spec: MLPSpec, params: TapedParams, group: str,
                      x: Var, first: int = 0) -> Var:
    """Layers ``first`` onwards of the MLP on a taped batch."""
    layers = spec.layers[first:]
    if layers and x.value.shape[1] != layers[0].in_width:
        raise ValueError(f"input width {x.value.shape[1]} != expected {layers[0].in_width}")
    for k, layer in enumerate(layers, start=first):
        x = ad.matmul(x, params.var(group, k, "W"))
        if layer.bias:
            x = ad.add(x, params.var(group, k, "b"))
        x = _activate_taped(x, layer.activation)
    return x


def init_glorot(model: ModelSpec, rng: np.random.Generator) -> ParamStore:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    store = ParamStore(model)
    for gname, spec in model.groups:
        for k, layer in enumerate(spec.layers):
            limit = np.sqrt(6.0 / (layer.in_width + layer.out_width))
            store.array(gname, k, "W")[:] = rng.uniform(
                -limit, limit, size=(layer.in_width, layer.out_width))
    return store


# -- Adam --------------------------------------------------------------------

def adam_init(size: int) -> dict:
    return {"m": np.zeros(size), "v": np.zeros(size), "t": 0}


def adam_step(params: np.ndarray, grads: np.ndarray, state: dict, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, dict]:
    """One bias-corrected Adam update; returns new (params, state)."""
    t = state["t"] + 1
    m = beta1 * state["m"] + (1 - beta1) * grads
    v = beta2 * state["v"] + (1 - beta2) * grads * grads
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, {"m": m, "v": v, "t": t}


# -- the two model architectures ---------------------------------------------

def jacobi_model_spec() -> ModelSpec:
    """Per-row relaxation diagonal: one vertex-update MLP, 5 -> 50 -> 20 -> 1."""
    return ModelSpec("jacobi_diagonal",
                     (("phi_v", mlp(5, 50, 20, 1, activation="relu")),))


def diffusion_model_spec() -> ModelSpec:
    """Coefficient recovery: entity-wise encoders plus one message-passing layer."""
    enc = dict(activation="relu", final_activation="none")
    return ModelSpec("diffusion_coefficients", (
        ("enc_e", mlp(3, 16, 16, 32, **enc)),
        ("enc_v", mlp(1, 16, 16, 32, **enc)),
        ("enc_g", mlp(1, 16, 16, 32, **enc)),
        ("phi_e", mlp(128, 32, 32, **enc)),
        ("phi_v", mlp(192, 32, 2, activation="relu", final_activation="leaky_relu")),
    ))


def jacobi_model_inputs(A: SparseMatrixCSR) -> np.ndarray:
    """Per-vertex features: A_ii then [min, mean, sum, max] of the off-diagonal row.

    One graph-network layer: the aggregation turns each variable-size
    neighbourhood into a fixed-size MLP input (zeros for an empty row).
    """
    layer = GNLayerSpec(phi_v=lambda V, ebar, g: np.concatenate([V, ebar], axis=1),
                        rho_ev=["min", "mean", "sum", "max"])
    return apply_layer(matrix_to_graph(A, self_edges=False), layer).vertex_attrs


def jacobi_model_forward(A: SparseMatrixCSR, store: ParamStore,
                         tape: Tape | None = None):
    """Predicted inverse-diagonal entries d_i, one per vertex.

    With a tape, returns the (n,) Var plus the TapedParams used (for backward);
    without, returns a plain array.
    """
    own_tape = tape is None
    if own_tape:
        tape = Tape(record=False)
    params = TapedParams(store, tape)
    out = mlp_forward_taped(tape, store.model.group("phi_v"), params, "phi_v",
                            tape.leaf(jacobi_model_inputs(A)))
    d = ad.reshape(out, (A.n,))
    if own_tape:
        return d.value
    return d, params


def diffusion_model_forward(graph: AttributedGraph, store: ParamStore,
                            tape: Tape | None = None):
    """Predicted (alpha, beta) per vertex from matrix/coordinate attributes.

    Expects edge attrs (A_ij, x_rel, y_rel), vertex attr (A_ii), global (h).
    Encoders transform each attribute set entity-wise (no message passing),
    then a single layer runs the edge update, a [min, mean, sum, max]
    aggregation, and the vertex update with a LeakyReLU final activation.
    """
    own_tape = tape is None
    if own_tape:
        tape = Tape(record=False)
    params = TapedParams(store, tape)
    model = store.model
    if graph.edge_attrs.shape[1] != 3 or graph.vertex_attrs.shape[1] != 1:
        raise ValueError("expected edge attrs (A_ij, x_rel, y_rel) and vertex attr (A_ii)")

    e = mlp_forward_taped(tape, model.group("enc_e"), params, "enc_e",
                          tape.leaf(graph.edge_attrs))
    v = mlp_forward_taped(tape, model.group("enc_v"), params, "enc_v",
                          tape.leaf(graph.vertex_attrs))
    g = mlp_forward_taped(tape, model.group("enc_g"), params, "enc_g",
                          tape.leaf(graph.global_attrs.reshape(1, 1)))

    e_new = _edge_update(model.group("phi_e"), params, graph, e, v, g)
    splits = graph.incoming_splits()
    ebar = ad.concat([ad.segment_min(e_new, splits), ad.segment_mean(e_new, splits),
                      ad.segment_sum(e_new, splits), ad.segment_max(e_new, splits)],
                     axis=1)
    g_verts = ad.gather(g, np.zeros(graph.num_vertices, dtype=np.int64))
    phi_v_in = ad.concat([v, ebar, g_verts], axis=1)
    out = mlp_forward_taped(tape, model.group("phi_v"), params, "phi_v", phi_v_in)
    if own_tape:
        return out.value
    return out, params


def _edge_update(spec: MLPSpec, params: TapedParams, graph: AttributedGraph,
                 e: Var, v: Var, g: Var) -> Var:
    """phi_e on the rows [e_k, v_src(k), v_dst(k), g], one per edge k.

    The first layer is linear in that concatenation, so it is applied block by
    block, e W0 + (v W1)[src] + (v W2)[dst] + g W3 + b: the vertex products run
    on the vertex rows, and the global row is broadcast, not gathered.
    """
    layer = spec.layers[0]
    widths = [x.value.shape[1] for x in (e, v, v, g)]
    if sum(widths) != layer.in_width:
        raise ValueError(f"input width {sum(widths)} != expected {layer.in_width}")
    W0, W1, W2, W3 = ad.split(params.var("phi_e", 0, "W"), widths)
    x = ad.add(ad.add(ad.matmul(e, W0), ad.gather(ad.matmul(v, W1), graph.src)),
               ad.gather(ad.matmul(v, W2), graph.dst))
    glob = ad.matmul(g, W3)
    if layer.bias:
        glob = ad.add(glob, params.var("phi_e", 0, "b"))
    x = _activate_taped(ad.add(x, glob), layer.activation)
    return mlp_forward_taped(x.tape, spec, params, "phi_e", x, first=1)


# -- checkpoints -------------------------------------------------------------

def _model_to_json(model: ModelSpec) -> dict:
    return {
        "name": model.name,
        "groups": [
            {"name": gname,
             "layers": [
                 {"in": l.in_width, "out": l.out_width, "bias": l.bias,
                  "activation": l.activation} for l in spec.layers]}
            for gname, spec in model.groups],
    }


def _model_from_json(doc: dict) -> ModelSpec:
    groups = tuple(
        (g["name"], MLPSpec(tuple(
            LayerSpec(l["in"], l["out"], l["bias"], l["activation"])
            for l in g["layers"])))
        for g in doc["groups"])
    return ModelSpec(doc["name"], groups)


def save_checkpoint(path, store: ParamStore, metadata: dict | None = None) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "architecture": _model_to_json(store.model),
        # repr round-trips float64 exactly; 17 significant digits
        "parameters": [float(f"{v:.17g}") for v in store.values],
        "metadata": metadata or {},
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: {doc.get('format_version')}")
    model = _model_from_json(doc["architecture"])
    store = ParamStore(model, np.array(doc["parameters"], dtype=np.float64))
    return store, doc["metadata"]
