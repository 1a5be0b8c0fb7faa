#pragma once

// Matrix-free Laplacian on continuous finite element spaces (the auxiliary
// levels of the hybrid multigrid hierarchy, paper Section 3.4). Continuity
// removes all face terms; the cell kernel is identical to the DG one, while
// gather/scatter resolve shared dofs, hanging-node constraints and Dirichlet
// conditions on the fly. Also provides the assembled CSR matrix for the
// algebraic coarse solver.
//
// Evaluation interface per operators/README.md: vmult(dst, src) for the
// homogeneous action (the level operators of the V-cycle act on residuals,
// so no inhomogeneous apply is needed).

#include "amg/sparse_matrix.h"
#include "instrumentation/profiler.h"
#include "matrixfree/fe_evaluation.h"
#include "operators/cfe_space.h"

namespace dgflow
{
template <typename Number>
class CFELaplaceOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;
  static constexpr unsigned int n_lanes = VA::width;

  void reinit(const MatrixFree<Number> &mf, const unsigned int space,
              const unsigned int quad, const CFESpace &cfe)
  {
    mf_ = &mf;
    space_ = space;
    quad_ = quad;
    cfe_ = &cfe;
    DGFLOW_ASSERT(mf.degree(space) == cfe.degree, "degree mismatch");
  }

  std::size_t n_dofs() const { return cfe_->n_dofs; }
  const CFESpace &space() const { return *cfe_; }

  void initialize_vector(VectorType &v) const { v.reinit(n_dofs()); }

  void vmult(VectorType &dst, const VectorType &src) const
  {
    dst.reinit(n_dofs(), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("cfe_laplace");
    DGFLOW_PROF_COUNT("mf_cell_batches", mf_->n_cell_batches());
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("cfe_laplace", src.size());

    FEEvaluation<Number, 1> phi(*mf_, space_, quad_);
    const unsigned int npc = phi.dofs_per_component;
    for (unsigned int b = 0; b < mf_->n_cell_batches(); ++b)
    {
      phi.reinit(b);
      gather(b, src, phi.begin_dof_values(), npc);
      phi.evaluate(false, true);
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
        phi.submit_gradient(phi.get_gradient(q), q);
      phi.integrate(false, true);
      scatter_add(b, phi.begin_dof_values(), dst, npc);
    }

    // identity rows on Dirichlet dofs keep the operator SPD
    for (std::size_t i = 0; i < n_dofs(); ++i)
      if (cfe_->dirichlet[i])
        dst[i] += src[i];
  }

  void compute_diagonal(VectorType &diag) const
  {
    diag.reinit(n_dofs());
    FEEvaluation<Number, 1> phi(*mf_, space_, quad_);
    const unsigned int npc = phi.dofs_per_component;
    AlignedVector<VA> column(npc), diag_local(npc);
    for (unsigned int b = 0; b < mf_->n_cell_batches(); ++b)
    {
      phi.reinit(b);
      for (unsigned int i = 0; i < npc; ++i)
      {
        for (unsigned int j = 0; j < npc; ++j)
          phi.begin_dof_values()[j] = VA(Number(i == j ? 1 : 0));
        phi.evaluate(false, true);
        for (unsigned int q = 0; q < phi.n_q_points; ++q)
          phi.submit_gradient(phi.get_gradient(q), q);
        phi.integrate(false, true);
        diag_local[i] = phi.begin_dof_values()[i];
      }
      // scatter the diagonal: constrained entries distribute w^2 onto the
      // master diagonal (the Galerkin diagonal of C^T A C)
      const auto &batch = mf_->cell_batch(b);
      for (unsigned int l = 0; l < batch.n_filled; ++l)
      {
        const std::uint32_t *entries =
          cfe_->cell_entries.data() + std::size_t(batch.cells[l]) * npc;
        for (unsigned int i = 0; i < npc; ++i)
        {
          const std::uint32_t e = entries[i];
          if (CFESpace::is_constrained(e))
          {
            for (const auto &ce :
                 cfe_->constraints[e & ~CFESpace::constraint_bit])
              if (!cfe_->dirichlet[ce.dof])
                diag[ce.dof] +=
                  Number(ce.weight * ce.weight) * diag_local[i][l];
          }
          else if (!cfe_->dirichlet[e])
            diag[e] += diag_local[i][l];
        }
      }
    }
    for (std::size_t i = 0; i < n_dofs(); ++i)
      if (cfe_->dirichlet[i])
        diag[i] = Number(1);
  }

  /// Assembles the full CSR matrix (double precision) for the AMG coarse
  /// solver, with constraints condensed and Dirichlet identity rows.
  SparseMatrix assemble_matrix() const
  {
    FEEvaluation<Number, 1> phi(*mf_, space_, quad_);
    const unsigned int npc = phi.dofs_per_component;
    std::vector<SparseMatrix::Triplet> triplets;
    col_buffer_.resize(std::size_t(npc) * npc);

    for (unsigned int b = 0; b < mf_->n_cell_batches(); ++b)
    {
      phi.reinit(b);
      for (unsigned int i = 0; i < npc; ++i)
      {
        for (unsigned int j = 0; j < npc; ++j)
          phi.begin_dof_values()[j] = VA(Number(i == j ? 1 : 0));
        phi.evaluate(false, true);
        for (unsigned int q = 0; q < phi.n_q_points; ++q)
          phi.submit_gradient(phi.get_gradient(q), q);
        phi.integrate(false, true);
        // copy column i out; the evaluator buffer is reused per column
        for (unsigned int j = 0; j < npc; ++j)
          col_buffer_[std::size_t(i) * npc + j] = phi.begin_dof_values()[j];
      }

      const auto &batch = mf_->cell_batch(b);
      for (unsigned int l = 0; l < batch.n_filled; ++l)
      {
        const std::uint32_t *entries =
          cfe_->cell_entries.data() + std::size_t(batch.cells[l]) * npc;
        // expand (row j, col i) with constraints
        for (unsigned int i = 0; i < npc; ++i)
          for (unsigned int j = 0; j < npc; ++j)
          {
            const double v = double(col_buffer_[std::size_t(i) * npc + j][l]);
            if (v == 0.)
              continue;
            add_expanded(triplets, entries[j], entries[i], v);
          }
      }
    }

    for (std::size_t i = 0; i < n_dofs(); ++i)
      if (cfe_->dirichlet[i])
        triplets.push_back({i, i, 1.});
    return SparseMatrix::from_triplets(n_dofs(), n_dofs(), std::move(triplets));
  }

private:
  void add_expanded(std::vector<SparseMatrix::Triplet> &triplets,
                    const std::uint32_t row_e, const std::uint32_t col_e,
                    const double v) const
  {
    auto rows = expand(row_e);
    auto cols = expand(col_e);
    for (const auto &[r, wr] : rows)
      for (const auto &[c, wc] : cols)
        if (!cfe_->dirichlet[r] && !cfe_->dirichlet[c])
          triplets.push_back({r, c, wr * wc * v});
  }

  std::vector<std::pair<std::size_t, double>>
  expand(const std::uint32_t e) const
  {
    std::vector<std::pair<std::size_t, double>> out;
    if (CFESpace::is_constrained(e))
      for (const auto &ce : cfe_->constraints[e & ~CFESpace::constraint_bit])
        out.emplace_back(ce.dof, ce.weight);
    else
      out.emplace_back(e, 1.);
    return out;
  }

  void gather(const unsigned int b, const VectorType &src, VA *local,
              const unsigned int npc) const
  {
    const auto &batch = mf_->cell_batch(b);
    for (unsigned int l = 0; l < n_lanes; ++l)
    {
      const std::uint32_t *entries =
        cfe_->cell_entries.data() + std::size_t(batch.cells[l]) * npc;
      for (unsigned int i = 0; i < npc; ++i)
      {
        const std::uint32_t e = entries[i];
        Number v;
        if (CFESpace::is_constrained(e))
        {
          v = Number(0);
          for (const auto &ce :
               cfe_->constraints[e & ~CFESpace::constraint_bit])
            if (!cfe_->dirichlet[ce.dof])
              v += Number(ce.weight) * src[ce.dof];
        }
        else
          v = cfe_->dirichlet[e] ? Number(0) : src[e];
        local[i][l] = v;
      }
    }
  }

  void scatter_add(const unsigned int b, const VA *local, VectorType &dst,
                   const unsigned int npc) const
  {
    const auto &batch = mf_->cell_batch(b);
    for (unsigned int l = 0; l < batch.n_filled; ++l)
    {
      const std::uint32_t *entries =
        cfe_->cell_entries.data() + std::size_t(batch.cells[l]) * npc;
      for (unsigned int i = 0; i < npc; ++i)
      {
        const std::uint32_t e = entries[i];
        if (CFESpace::is_constrained(e))
        {
          for (const auto &ce :
               cfe_->constraints[e & ~CFESpace::constraint_bit])
            if (!cfe_->dirichlet[ce.dof])
              dst[ce.dof] += Number(ce.weight) * local[i][l];
        }
        else if (!cfe_->dirichlet[e])
          dst[e] += local[i][l];
      }
    }
  }

  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  const CFESpace *cfe_ = nullptr;
  mutable AlignedVector<VA> col_buffer_;
};

} // namespace dgflow
