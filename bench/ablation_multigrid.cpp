// Ablation study of the hybrid multigrid design choices (paper Section 3.4):
// with/without the geometric (h) coarsening below the continuous Q1 space,
// Chebyshev smoother degree, SIP penalty safety factor, and the effect of
// the mesh (cube vs bifurcation vs lung) on the iteration count.

#include "bench/bench_common.h"
#include "multigrid/hybrid_multigrid.h"
#include "solvers/cg.h"

using namespace dgflow;
using namespace dgflow::bench;

namespace
{
struct Result
{
  SolveStats stats;
  double seconds;
  unsigned int levels;

  /// the iteration count, or FAILED(<reason>@<it>) for a failed solve
  std::string its() const { return iterations_or_failure(stats); }
  /// the solve time, or "-" for a failed solve
  std::string time() const
  {
    return stats.converged ? Table::format(seconds, 3) : "-";
  }
};

Result run(const CoarseMesh &coarse, const BoundaryMap &bc,
           const unsigned int refine, const unsigned int degree,
           const HybridMultigrid<float>::Options &opts)
{
  Mesh mesh(coarse);
  mesh.refine_uniform(refine);
  TrilinearGeometry geom(mesh.coarse());

  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.geometry_degree = 1;
  data.penalty_safety = opts.penalty_safety;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, bc);

  HybridMultigrid<float> mg;
  auto o = opts;
  o.geometry_degree = 1;
  mg.setup(mesh, geom, degree, bc, o);

  Vector<double> rhs, x(laplace.n_dofs());
  laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                       [](const Point &) { return 0.; });
  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 400;
  Timer t;
  const auto result = solve_cg(laplace, x, rhs, mg, control);
  return {result, t.seconds(), mg.n_levels()};
}

BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 300; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}
} // namespace

int main()
{
  dgflow::prof::EnvSession profile_session;
  print_header("Ablation: hybrid multigrid design choices",
               "paper Sections 3.4 / 5.2 (design discussion)");

  const BoundaryMap bc = all_dirichlet();
  const CoarseMesh cube = subdivided_box(Point(0, 0, 0), Point(1, 1, 1),
                                         {{2, 2, 2}});
  const LungMesh bif = bifurcation_mesh();

  // 1. h-coarsening on/off
  {
    Table t({"variant", "levels", "CG its", "solve [s]"});
    for (const bool h : {true, false})
    {
      HybridMultigrid<float>::Options opts;
      opts.h_coarsening = h;
      const Result r = run(cube, bc, 3, 3, opts);
      t.add_row(h ? "full hybrid (p+c+h+AMG)" : "no h-levels (p+c+AMG)",
                r.levels, r.its(), r.time());
    }
    std::printf("\n[1] geometric coarsening below the Q1 space (cube, k=3, "
                "16^3 cells):\n");
    t.print();
  }

  // 2. Chebyshev smoother degree
  {
    Table t({"smoother degree", "CG its", "solve [s]"});
    for (const unsigned int deg : {2u, 3u, 5u})
    {
      HybridMultigrid<float>::Options opts;
      opts.smoother.degree = deg;
      const Result r = run(cube, bc, 3, 3, opts);
      t.add_row(deg, r.its(), r.time());
    }
    std::printf("\n[2] Chebyshev smoother degree (paper: 3):\n");
    t.print();
  }

  // 3. SIP penalty safety factor (iteration cost of the robustified
  // operator needed by the sheared lung junction cells)
  {
    Table t({"penalty safety", "CG its", "solve [s]"});
    for (const double safety : {1., 2., 4.})
    {
      HybridMultigrid<float>::Options opts;
      opts.penalty_safety = safety;
      const Result r = run(cube, bc, 3, 3, opts);
      t.add_row(Table::format(safety, 2), r.its(), r.time());
    }
    std::printf("\n[3] SIP penalty safety factor (cube, k=3):\n");
    t.print();
  }

  // 4. mesh complexity: cube vs bifurcation (the paper's 9 vs 21 contrast
  // is reproduced in fig09/fig10; here the same tolerance on both)
  {
    Table t({"mesh", "CG its", "solve [s]"});
    {
      HybridMultigrid<float>::Options opts;
      const Result r = run(cube, bc, 3, 3, opts);
      t.add_row("cube 16^3", r.its(), r.time());
    }
    {
      HybridMultigrid<float>::Options opts;
      opts.penalty_safety = 4.;
      const Result r = run(bif.coarse, bc, 1, 3, opts);
      t.add_row("bifurcation", r.its(), r.time());
    }
    std::printf("\n[4] mesh complexity at tol 1e-10:\n");
    t.print();
  }
  return 0;
}
