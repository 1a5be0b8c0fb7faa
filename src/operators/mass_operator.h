#pragma once

// Mass operator and its exact inverse. With the nodal basis collocated at
// the Gauss quadrature points, the DG mass matrix is diagonal with entries
// JxW even on deformed cells - the property the dual splitting scheme
// exploits for the cheap M^{-1} applications in Eqs. (1) and (3) and as the
// preconditioner of the projection/penalty solves (paper Section 5.3).
//
// Evaluation interface per operators/README.md: vmult(dst, src) driven by
// cell_only_loop (the operator is cell-local and time-independent);
// apply_inverse is the extra exact-inverse entry point the splitting scheme
// relies on.

#include "instrumentation/profiler.h"
#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"

namespace dgflow
{
template <typename Number, int n_components = 1>
class MassOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int space,
              const unsigned int quad)
  {
    mf_ = &mf;
    space_ = space;
    quad_ = quad;
    DGFLOW_ASSERT(mf.shape_info(space, quad).collocation,
                  "MassOperator requires the collocated quadrature");
  }

  std::size_t n_dofs() const { return mf_->n_dofs(space_, n_components); }

  void vmult(VectorType &dst, const VectorType &src) const
  {
    dst.reinit(n_dofs(), true);
    apply_scaled<false>(dst, src);
  }

  /// dst = M^{-1} src (exact, diagonal in the collocated basis).
  void apply_inverse(VectorType &dst, const VectorType &src) const
  {
    dst.reinit(n_dofs(), true);
    apply_scaled<true>(dst, src);
  }

private:
  template <bool inverse>
  void apply_scaled(VectorType &dst, const VectorType &src) const
  {
    DGFLOW_PROF_SCOPE(inverse ? "mass_inverse" : "mass");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT(inverse ? "mass_inverse" : "mass",
                           src.size());
    const auto &metric = mf_->cell_metric(quad_);
    const unsigned int nq = metric.n_q;
    const auto make_cell = [&metric, nq, &src, this](auto &dst_v) {
      return [&metric, nq, &dst_v, &src, this](const unsigned int b) {
        const auto &batch = mf_->cell_batch(b);
        for (unsigned int l = 0; l < batch.n_filled; ++l)
        {
          const std::size_t base =
            std::size_t(batch.cells[l]) * nq * n_components;
          for (int c = 0; c < n_components; ++c)
            for (unsigned int q = 0; q < nq; ++q)
            {
              const Number jxw = metric.jxw(b, q)[l];
              const std::size_t idx = base + c * nq + q;
              dst_v[idx] = inverse ? src[idx] / jxw : src[idx] * jxw;
            }
        }
      };
    };
    cell_only_loop(*mf_, dst, make_cell);
  }

  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
};

} // namespace dgflow
