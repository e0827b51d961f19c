"""Sparse numerical linear algebra as message-passing graph networks.

Classical kernels (SpMV, weighted norms, Jacobi and Chebyshev relaxation, the
power method, multigrid strength-of-connection and direct interpolation) are
expressed as layers over attributed graphs, and a self-contained training
stack (tape autodiff, MLPs, Adam) learns per-row relaxation diagonals and
pointwise diffusion coefficients from assembled finite-element matrices.
"""

from .amg import (CFPartition, cf_split_greedy, direct_interpolation, soc_classic,
                  soc_sa, two_level_solve)
from .graph_net import (AttributedGraph, GNLayerSpec, aggregate_incoming,
                        apply_layer, graph_to_matrix, make_graph, matrix_to_graph)
from .kernels import (chebyshev_reference, gnn_chebyshev, gnn_jacobi,
                      gnn_power_method, gnn_spmv, gnn_weighted_norm,
                      jacobi_reference, power_method_reference,
                      weighted_norm_reference)
from .nn import (LayerSpec, MLPSpec, ModelSpec, ParamStore, adam_init,
                 adam_step, diffusion_model_forward, diffusion_model_spec,
                 init_glorot, jacobi_model_forward, jacobi_model_spec,
                 load_checkpoint, save_checkpoint)
from .fem import (DiffusionDataConfig, JacobiDataConfig, ProblemInstance,
                  QuadMesh, assemble_diffusion_periodic,
                  assemble_laplace_dirichlet, build_band_mesh, diffusion_graph,
                  gen_diffusion_dataset, gen_jacobi_dataset, read_instance,
                  sine_mode_basis, write_instance)
from .sparse import (MatrixFormatError, SparseMatrixCSR, from_coo, from_dense,
                     identity, read_matrix_market, spmm_csr, spmv_csr,
                     write_matrix_market)
from .train import (EvalReport, TrainConfig, TrainResult, compare_methods,
                    diffusion_loss, eval_jacobi, freq_sweep_eval, omega_co,
                    stencil_probe, train_diffusion, train_jacobi)

__version__ = "0.1.0"
