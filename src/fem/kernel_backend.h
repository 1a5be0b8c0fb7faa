#pragma once

// Kernel backend abstraction (ROADMAP: "kernel backend abstraction
// (GPU/APU-ready)"): the sum-factorization layer behind FEEvaluation /
// FEFaceEvaluation is selected at runtime from a small set of backends, each
// owning its dof/quad-point storage layout, its fixed-size dispatch tables
// and its cell/face evaluate-integrate entry points:
//
//   batch (0, default)  the AVX-512 AoSoA path: every tensor entry is a
//                       VectorizedArray whose lanes are the cells of the
//                       batch; even-odd fixed-size tables from
//                       fem/kernel_dispatch.h. Bitwise-identical to the
//                       pre-backend kernel layer by construction.
//   soa (1)             structure-of-arrays lane-major layout: the batch is
//                       staged into per-lane scalar tensors, swept by
//                       stride-templated scalar kernels (plain matrices, no
//                       even-odd), and staged back. This is the layout a
//                       future APU/GPU offload consumes (GALÆXI, arXiv
//                       2606.18927; Müthing et al., arXiv 1711.10885) - the
//                       pack/compute/unpack boundary models host-side
//                       marshalling. Equivalent to batch to <= 1e-13.
//   generic (2)         runtime-extent sweeps on the AoSoA layout - the
//                       verified fallback every other backend is tested
//                       against, and the ABFT repair target when a dispatch
//                       table fails its checksum.
//
// Selection: MatrixFree::AdditionalData::backend (strongest), else the
// DGFLOW_BACKEND environment variable (strict batch|soa|generic parse via
// common/env.h), else the process default (set_default_kernel_backend; a
// generic default also disables the fixed-size dispatch tables, so already
// selected batch/soa backends degrade to the runtime-extent sweeps).
// Evaluators query MatrixFree::kernel_backend() at construction, so each
// evaluator - and therefore each thread chunk of the parallel cell loops -
// owns a private backend instance with private scratch.
//
// The quadrature-point contract is backend-independent: values_quad_ /
// gradients_quad_ stay in the AoSoA VectorizedArray layout, so operator
// get_*/submit_* loops never see the backend's internal layout.

#include <memory>

#include "fem/shape_info.h"
#include "simd/vectorized_array.h"

namespace dgflow
{
/// Runtime-selectable sum-factorization backend. Numeric values are part of
/// the external interface (profiler gauge mf_backend, bench configs).
enum class KernelBackendType : unsigned char
{
  batch = 0,  ///< AoSoA VectorizedArray path with even-odd dispatch tables
  soa = 1,    ///< lane-major scalar staging, device-layout kernels
  generic = 2 ///< runtime-extent AoSoA sweeps (verified fallback)
};

/// The names used by DGFLOW_BACKEND and the bench/JSON configs.
const char *kernel_backend_name(KernelBackendType type);

/// Strict parse of DGFLOW_BACKEND (batch|soa|generic): unset returns
/// @p fallback, anything else throws EnvVarError naming the variable.
KernelBackendType kernel_backend_from_env(KernelBackendType fallback);

/// Process-wide default backend used when neither AdditionalData::backend
/// nor DGFLOW_BACKEND selects one. Also the lever the ABFT table guard
/// pulls: routing the default to generic disables every fixed-size dispatch
/// table (lookup_* return nullptr), so evaluators constructed afterwards -
/// including batch/soa ones on live MatrixFree objects - run the verified
/// runtime-extent arithmetic.
void set_default_kernel_backend(KernelBackendType type);
KernelBackendType default_kernel_backend();

/// Stateful per-evaluator backend: owns the scratch buffers and dispatch
/// tables of one evaluation chain. The VA pointers at the interface are the
/// evaluators' AoSoA storage; backends with a different internal layout
/// (SoABackend) stage across this boundary. Instances are not thread-safe -
/// the loop drivers construct one evaluator (hence one backend) per thread
/// chunk, which is what keeps the threaded sweeps race-free.
template <typename Number>
class KernelBackend
{
public:
  using VA = VectorizedArray<Number>;

  explicit KernelBackend(const ShapeInfo<Number> &shape)
    : shape_(shape), n_(shape.n_dofs_1d), nq_(shape.n_q_1d)
  {
  }
  virtual ~KernelBackend() = default;

  virtual KernelBackendType type() const = 0;

  // ---- cell chain (one scalar component per call) ----

  /// Basis change dofs (n^3) -> quadrature values (nq^3).
  virtual void interpolate_to_quad(const VA *dofs, VA *values_quad) = 0;
  /// Transpose of interpolate_to_quad.
  virtual void integrate_from_quad(const VA *values_quad, VA *dofs) = 0;
  /// Collocation derivatives: values -> three gradient slabs at
  /// gradients_quad + d * nq^3.
  virtual void collocation_gradients(const VA *values_quad,
                                     VA *gradients_quad) = 0;
  /// Transpose of collocation_gradients, accumulating into values_quad
  /// (overwriting on the first sweep when @p overwrite is set).
  virtual void collocation_gradients_transpose(const VA *gradients_quad,
                                               VA *values_quad,
                                               const bool overwrite) = 0;

  // ---- face chain ----

  /// Contracts the n^3 dof tensor with v[n] along @p direction -> plane.
  virtual void contract_to_face(const Number *v, const VA *dofs, VA *plane,
                                const unsigned int direction) = 0;
  /// Transpose of contract_to_face, accumulating into the dof tensor.
  virtual void expand_from_face_add(const Number *v, const VA *plane,
                                    VA *dofs, const unsigned int direction) = 0;
  /// Applies the nq x n matrices M0 along axis 0 and M1 along axis 1 of the
  /// n^2 plane, producing the nq^2 output.
  virtual void interp_plane(const Number *M0, const Number *M1, const VA *in,
                            VA *out) = 0;
  /// Transpose of interp_plane; accumulates into out when @p add is set.
  virtual void interp_plane_transpose(const Number *M0, const Number *M1,
                                      const VA *in, VA *out,
                                      const bool add) = 0;

protected:
  const ShapeInfo<Number> &shape_;
  unsigned int n_, nq_;
};

/// Constructs the backend instance for @p type. @p use_even_odd mirrors the
/// FEEvaluation ablation knob: with it off, the batch/generic backends run
/// the plain (non-even-odd) runtime sweeps and skip the dispatch tables,
/// exactly like the pre-backend evaluators. Instantiated for double/float in
/// the kernel dispatch translation units.
template <typename Number>
std::unique_ptr<KernelBackend<Number>>
make_kernel_backend(const KernelBackendType type,
                    const ShapeInfo<Number> &shape,
                    const bool use_even_odd = true);

} // namespace dgflow
