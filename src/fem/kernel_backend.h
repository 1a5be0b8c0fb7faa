#pragma once

// The sum-factorization kernel layer behind FEEvaluation / FEFaceEvaluation:
// one concrete class per number type that runs the fully unrolled
// fixed-size even-odd kernels of fem/kernel_dispatch.h where an
// instantiation for (degree, n_q_1d) exists, and the runtime-extent sweeps
// of fem/tensor_kernels.h otherwise. Both act on the AoSoA layout (every
// tensor entry is a VectorizedArray whose lanes are the cells of the batch)
// and share the even-odd summation order, so the two paths agree to a few
// ULPs.
//
// The tables are looked up once, at construction. The process-wide default
// (set_default_kernel_backend) is the one lever: a generic default makes
// every lookup return nullptr, so evaluators constructed afterwards run the
// runtime-extent sweeps. The ABFT table guard pulls it when a dispatch table
// fails its checksum (resilience/abft.cpp).
//
// Each evaluator - and therefore each thread chunk of the parallel cell
// loops - owns a private instance with private scratch.

#include "common/aligned_vector.h"
#include "fem/kernel_dispatch.h"
#include "fem/shape_info.h"
#include "simd/vectorized_array.h"

namespace dgflow
{
/// Process-default kernel path.
enum class KernelBackendType : unsigned char
{
  batch = 0,  ///< fixed-size dispatch tables where instantiated
  generic = 1 ///< runtime-extent sweeps only (tables disabled)
};

/// "batch" or "generic" (bench and JSON configs).
const char *kernel_backend_name(KernelBackendType type);

/// Process-wide default. Routing it to generic disables every fixed-size
/// dispatch table (lookup_* return nullptr), so evaluators constructed
/// afterwards - also on live MatrixFree objects - run the verified
/// runtime-extent arithmetic.
void set_default_kernel_backend(KernelBackendType type);
KernelBackendType default_kernel_backend();

/// Per-evaluator sum-factorization kernels: owns the scratch buffers and
/// the dispatch-table pointers of one evaluation chain. Not thread-safe; the
/// loop drivers construct one evaluator (hence one instance) per thread
/// chunk. Member definitions live in fem/kernel_backend_impl.h and are
/// instantiated for double/float in the kernel dispatch translation units.
template <typename Number>
class KernelBackend
{
public:
  using VA = VectorizedArray<Number>;

  /// @p use_even_odd = false is the ablation knob: plain (non-even-odd)
  /// runtime sweeps and no cell tables, which build on even-odd.
  explicit KernelBackend(const ShapeInfo<Number> &shape,
                         const bool use_even_odd = true);

  // ---- cell chain (one scalar component per call) ----

  /// Basis change dofs (n^3) -> quadrature values (nq^3).
  void interpolate_to_quad(const VA *dofs, VA *values_quad);
  /// Transpose of interpolate_to_quad.
  void integrate_from_quad(const VA *values_quad, VA *dofs);
  /// Collocation derivatives: values -> three gradient slabs at
  /// gradients_quad + d * nq^3.
  void collocation_gradients(const VA *values_quad, VA *gradients_quad);
  /// Transpose of collocation_gradients, accumulating into values_quad
  /// (overwriting on the first sweep when @p overwrite is set).
  void collocation_gradients_transpose(const VA *gradients_quad,
                                       VA *values_quad, const bool overwrite);

  // ---- face chain ----

  /// Contracts the n^3 dof tensor with v[n] along @p direction -> plane.
  void contract_to_face(const Number *v, const VA *dofs, VA *plane,
                        const unsigned int direction);
  /// Transpose of contract_to_face, accumulating into the dof tensor.
  void expand_from_face_add(const Number *v, const VA *plane, VA *dofs,
                            const unsigned int direction);
  /// Applies the nq x n matrices M0 along axis 0 and M1 along axis 1 of the
  /// n^2 plane, producing the nq^2 output.
  void interp_plane(const Number *M0, const Number *M1, const VA *in,
                    VA *out);
  /// Transpose of interp_plane; accumulates into out when @p add is set.
  void interp_plane_transpose(const Number *M0, const Number *M1,
                              const VA *in, VA *out, const bool add);

private:
  // scratch sized on first use: an instance serving only the face chain
  // never allocates the (larger) cell sweep buffers and vice versa
  void ensure_cell_scratch();
  void ensure_face_scratch();

  const ShapeInfo<Number> &shape_;
  unsigned int n_, nq_;
  bool even_odd_;
  const CellKernels<Number> *cell_;
  const FaceKernels<Number> *face_;
  AlignedVector<VA> tmp1_, tmp2_, ftmp_;
};

} // namespace dgflow
