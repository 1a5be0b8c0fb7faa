#pragma once

// Vector-valued Helmholtz operator of the viscous step (Eq. 4 of the paper):
// (gamma0/dt) M + nu * A_SIP applied componentwise, matrix-free, with
// velocity Dirichlet (mirror ghost) and Neumann (do-nothing) boundaries.
// With mass_factor = 0 this is the pure viscous operator V(U).
//
// Evaluation interface per operators/README.md: vmult(dst, src) for the
// homogeneous action; inhomogeneous boundary data enters via
// add_boundary_rhs (the operator itself is time-independent).

#include "instrumentation/profiler.h"
#include "matrixfree/cell_loop.h"
#include "matrixfree/fe_evaluation.h"
#include "matrixfree/fe_face_evaluation.h"
#include "operators/convective_operator.h"

namespace dgflow
{
template <typename Number>
class HelmholtzOperator
{
public:
  using VA = VectorizedArray<Number>;
  using VectorType = Vector<Number>;

  void reinit(const MatrixFree<Number> &mf, const unsigned int u_space,
              const unsigned int quad, const FlowBoundaryMap &bc,
              const Number viscosity)
  {
    mf_ = &mf;
    space_ = u_space;
    quad_ = quad;
    bc_ = &bc;
    nu_ = viscosity;
  }

  /// Sets the mass shift gamma0/dt (0 = pure viscous operator).
  void set_mass_factor(const Number m) { mass_factor_ = m; }
  Number mass_factor() const { return mass_factor_; }

  std::size_t n_dofs() const { return mf_->n_dofs(space_, 3); }

  void vmult(VectorType &dst, const VectorType &src) const
  {
    dst.reinit(n_dofs(), true);
    dst = Number(0);
    DGFLOW_PROF_SCOPE("helmholtz");
    DGFLOW_PROF_COUNT("mf_dofs", src.size() + dst.size());
    DGFLOW_PROF_THROUGHPUT("helmholtz", src.size());

    const auto make_kernels = [&, this](auto &dst_v) {
      auto phi =
        std::make_shared<FEEvaluation<Number, 3>>(*mf_, space_, quad_);
      auto phi_m = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, space_, quad_, true);
      auto phi_p = std::make_shared<FEFaceEvaluation<Number, 3>>(
        *mf_, space_, quad_, false);

      const auto cell = [phi, &dst_v, &src, this](const unsigned int b) {
        phi->reinit(b);
        phi->read_dof_values(src);
        phi->evaluate(true, true);
        for (unsigned int q = 0; q < phi->n_q_points; ++q)
        {
          if (mass_factor_ != Number(0))
            phi->submit_value(mass_factor_ * phi->get_value(q), q);
          Tensor2<VA> g = phi->get_gradient(q);
          for (unsigned int i = 0; i < dim; ++i)
            for (unsigned int j = 0; j < dim; ++j)
              g[i][j] = nu_ * g[i][j];
          phi->submit_gradient(g, q);
        }
        phi->integrate(mass_factor_ != Number(0), true);
        phi->distribute_local_to_global(dst_v);
      };

      const auto inner = [phi_m, phi_p, &dst_v, &src,
                          this](const unsigned int b) {
        phi_m->reinit(b);
        phi_p->reinit(b);
        phi_m->read_dof_values(src);
        phi_p->read_dof_values(src);
        phi_m->evaluate(true, true);
        phi_p->evaluate(true, true);
        const VA sigma = phi_m->penalty_parameter();
        for (unsigned int q = 0; q < phi_m->n_q_points; ++q)
        {
          const Tensor1<VA> jump = phi_m->get_value(q) - phi_p->get_value(q);
          const Tensor1<VA> avg_dn =
            Number(0.5) * (phi_m->get_normal_derivative(q) -
                           phi_p->get_normal_derivative(q));
          Tensor1<VA> flux, w;
          for (unsigned int c = 0; c < dim; ++c)
          {
            flux[c] = nu_ * (sigma * jump[c] - avg_dn[c]);
            w[c] = nu_ * Number(-0.5) * jump[c];
          }
          phi_m->submit_value(flux, q);
          phi_p->submit_value(-flux, q);
          phi_m->submit_normal_derivative(w, q);
          phi_p->submit_normal_derivative(-w, q);
        }
        phi_m->integrate(true, true);
        phi_p->integrate(true, true);
        phi_m->distribute_local_to_global(dst_v);
        phi_p->distribute_local_to_global(dst_v);
      };

      const auto boundary = [phi_m, &dst_v, &src, this](const unsigned int b) {
        phi_m->reinit(b);
        const FlowBoundary &bdata = bc_->at(phi_m->boundary_id());
        if (bdata.kind != FlowBoundary::Kind::velocity_dirichlet)
          return; // natural (do-nothing) on pressure boundaries
        phi_m->read_dof_values(src);
        phi_m->evaluate(true, true);
        const VA sigma = phi_m->penalty_parameter();
        for (unsigned int q = 0; q < phi_m->n_q_points; ++q)
        {
          const Tensor1<VA> u = phi_m->get_value(q);
          const Tensor1<VA> dn = phi_m->get_normal_derivative(q);
          Tensor1<VA> flux, w;
          for (unsigned int c = 0; c < dim; ++c)
          {
            flux[c] = nu_ * (Number(2) * sigma * u[c] - dn[c]);
            w[c] = -nu_ * u[c];
          }
          phi_m->submit_value(flux, q);
          phi_m->submit_normal_derivative(w, q);
        }
        phi_m->integrate(true, true);
        phi_m->distribute_local_to_global(dst_v);
      };

      return LoopKernels{cell, inner, boundary};
    };

    cell_face_loop(*mf_, dst, src, make_kernels);
  }

  /// Adds the inhomogeneous boundary contributions to @p rhs: Dirichlet data
  /// g_u and (optional, analytic tests) Neumann data dg/dn at time @p t.
  void add_boundary_rhs(VectorType &rhs, const double t,
                        const VectorFunctionT &neumann_data = {}) const
  {
    FEFaceEvaluation<Number, 3> phi(*mf_, space_, quad_, true);
    for (unsigned int b = mf_->n_inner_face_batches();
         b < mf_->n_face_batches(); ++b)
    {
      phi.reinit(b);
      const FlowBoundary &bdata = bc_->at(phi.boundary_id());
      const bool dirichlet =
        bdata.kind == FlowBoundary::Kind::velocity_dirichlet;
      if (!dirichlet && !neumann_data)
        continue;
      const VA sigma = phi.penalty_parameter();
      for (unsigned int q = 0; q < phi.n_q_points; ++q)
      {
        if (dirichlet)
        {
          // standard SIP data terms: + 2 nu sigma g v - nu g dv/dn
          const Tensor1<VA> g = ConvectiveOperator<Number>::evaluate_vector(
            bdata.velocity, phi, q, t);
          Tensor1<VA> fv, fg;
          for (unsigned int c = 0; c < dim; ++c)
          {
            fv[c] = nu_ * Number(2) * sigma * g[c];
            fg[c] = -nu_ * g[c];
          }
          phi.submit_value(fv, q);
          phi.submit_normal_derivative(fg, q);
        }
        else
        {
          const Tensor1<VA> h = ConvectiveOperator<Number>::evaluate_vector(
            neumann_data, phi, q, t);
          Tensor1<VA> hv;
          for (unsigned int c = 0; c < dim; ++c)
            hv[c] = nu_ * h[c];
          phi.submit_value(hv, q);
          phi.submit_normal_derivative(Tensor1<VA>(), q);
        }
      }
      phi.integrate(true, true);
      phi.distribute_local_to_global(rhs);
    }
  }

  void compute_diagonal(VectorType &diag) const
  {
    diag.reinit(n_dofs());
    const unsigned int npc = mf_->dofs_per_cell(space_);
    const unsigned int n_cell_dofs = 3 * npc;
    AlignedVector<VA> buffer(n_cell_dofs);

    FEEvaluation<Number, 3> phi(*mf_, space_, quad_);
    for (unsigned int b = 0; b < mf_->n_cell_batches(); ++b)
    {
      phi.reinit(b);
      // the three components are decoupled and identical: probe one
      for (unsigned int i = 0; i < npc; ++i)
      {
        for (unsigned int j = 0; j < n_cell_dofs; ++j)
          phi.begin_dof_values()[j] = VA(Number(0));
        phi.begin_dof_values()[i] = VA(Number(1));
        phi.evaluate(true, true);
        for (unsigned int q = 0; q < phi.n_q_points; ++q)
        {
          if (mass_factor_ != Number(0))
            phi.submit_value(mass_factor_ * phi.get_value(q), q);
          Tensor2<VA> g = phi.get_gradient(q);
          for (unsigned int r = 0; r < dim; ++r)
            for (unsigned int s = 0; s < dim; ++s)
              g[r][s] = nu_ * g[r][s];
          phi.submit_gradient(g, q);
        }
        phi.integrate(mass_factor_ != Number(0), true);
        for (unsigned int c = 0; c < dim; ++c)
          buffer[c * npc + i] = phi.begin_dof_values()[i];
      }
      for (unsigned int j = 0; j < n_cell_dofs; ++j)
        phi.begin_dof_values()[j] = buffer[j];
      phi.distribute_local_to_global(diag);
    }

    // face contributions (same-side coupling), scalar probing replicated
    FEFaceEvaluation<Number, 3> fm(*mf_, space_, quad_, true);
    FEFaceEvaluation<Number, 3> fp(*mf_, space_, quad_, false);
    AlignedVector<VA> fbuffer(n_cell_dofs);
    for (unsigned int b = 0; b < mf_->n_face_batches(); ++b)
    {
      const bool interior = b < mf_->n_inner_face_batches();
      if (!interior)
      {
        fm.reinit(b);
        if (bc_->at(fm.boundary_id()).kind !=
            FlowBoundary::Kind::velocity_dirichlet)
          continue;
      }
      for (unsigned int side = 0; side < (interior ? 2u : 1u); ++side)
      {
        auto &eval = side == 0 ? fm : fp;
        eval.reinit(b);
        const VA sigma = eval.penalty_parameter();
        for (unsigned int i = 0; i < npc; ++i)
        {
          for (unsigned int j = 0; j < n_cell_dofs; ++j)
            eval.begin_dof_values()[j] = VA(Number(0));
          eval.begin_dof_values()[i] = VA(Number(1));
          eval.evaluate(true, true);
          for (unsigned int q = 0; q < eval.n_q_points; ++q)
          {
            const Tensor1<VA> u = eval.get_value(q);
            const Tensor1<VA> dn = eval.get_normal_derivative(q);
            Tensor1<VA> flux, w;
            const Number pen_scale = interior ? Number(1) : Number(2);
            const Number half = interior ? Number(0.5) : Number(1);
            for (unsigned int c = 0; c < dim; ++c)
            {
              flux[c] = nu_ * (pen_scale * sigma * u[c] - half * dn[c]);
              w[c] = -nu_ * half * u[c];
            }
            eval.submit_value(flux, q);
            eval.submit_normal_derivative(w, q);
          }
          eval.integrate(true, true);
          for (unsigned int c = 0; c < dim; ++c)
            fbuffer[c * npc + i] = eval.begin_dof_values()[i];
        }
        for (unsigned int j = 0; j < n_cell_dofs; ++j)
          eval.begin_dof_values()[j] = fbuffer[j];
        eval.distribute_local_to_global(diag);
      }
    }
  }

private:
  const MatrixFree<Number> *mf_ = nullptr;
  unsigned int space_ = 0, quad_ = 0;
  const FlowBoundaryMap *bc_ = nullptr;
  Number nu_ = Number(1);
  Number mass_factor_ = Number(0);
};

} // namespace dgflow
