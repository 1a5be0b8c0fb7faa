// lung_poisson: the Fig. 10 pressure Poisson solve on the lung. A g = 3 lung
// with generation 0 refined once (hanging nodes), k = 3, penalty_safety 4,
// and a float HybridMultigrid preconditioning solve_cg from a zero guess to
// 1e-10. It runs the multigrid, AMG and fine Laplace layers and none of the
// velocity-side operators or time integration.
//
// Each run also attempts one g = 4 solve with generations <= 1 refined, the
// fig10 configuration, as a canary: its outcome is recorded as an operation
// that succeeded or failed, never as a timing sample.

#include <cstdio>
#include <memory>
#include <random>

#include "lung.h"
#include "solvers/cg.h"

namespace lungbench
{
namespace
{
using dgflow::HybridMultigrid;
using dgflow::LaplaceOperator;
using dgflow::MatrixFree;
using dgflow::Vector;

constexpr double tolerance = 1e-10;
// The recurrence residual of CG drifts from the true one by roundoff; the
// recomputed ||b - Ax|| / ||b|| must stay within this multiple of the
// tolerance.
constexpr double residual_slack = 10;
// Nominal solves per measured second: the solve count is fixed by --seconds.
constexpr double solves_per_second = 0.4;
constexpr unsigned int setup_repeats = 2;

/// Source term drawn from the workload seed: f = 1 + 0.2 sin(2 pi d.x / L +
/// phi) with a random unit direction d and phase phi, L = 0.12 m (the
/// trachea length); fig10's f = 1 plus a smooth seed-dependent part.
dgflow::ScalarFunction source(const std::uint64_t seed)
{
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> normal;
  std::uniform_real_distribution<double> phase(0, 2 * M_PI);
  dgflow::Point d;
  for (unsigned int c = 0; c < 3; ++c)
    d[c] = normal(gen);
  const double n = std::max(1e-12, dgflow::norm(d));
  for (unsigned int c = 0; c < 3; ++c)
    d[c] /= n;
  const double phi = phase(gen);
  return [d, phi](const dgflow::Point &x) {
    return 1. + 0.2 * std::sin(2 * M_PI * dgflow::dot(d, x) / 0.12 + phi);
  };
}

/// The Poisson problem of one lung: mesh, MatrixFree, Laplace operator,
/// float hybrid multigrid and the right-hand side of source @p f, g = 0.
struct PoissonCase
{
  dgflow::LungMesh lung;
  std::unique_ptr<dgflow::Mesh> mesh;
  std::unique_ptr<dgflow::TrilinearGeometry> geometry;
  dgflow::BoundaryMap bc;
  MatrixFree<double> mf;
  LaplaceOperator<double> laplace;
  HybridMultigrid<float> mg;
  Vector<double> rhs;

  static MatrixFree<double>::AdditionalData mf_data()
  {
    MatrixFree<double>::AdditionalData data;
    data.degrees = {lung_degree};
    data.n_q_points_1d = {lung_degree + 1};
    data.geometry_degree = 1;
    data.penalty_safety = 4.; // coercivity on the sheared junction cells
    return data;
  }

  /// Builds everything; spans name the layer each call belongs to.
  PoissonCase(Tracer &tracer, const unsigned int tree_seed,
              const unsigned int generations,
              const unsigned int refine_upto_generation,
              const dgflow::ScalarFunction &f)
  {
    {
      auto s = tracer.span("lung.mesh_build");
      dgflow::AirwayTreeParameters tp;
      tp.n_generations = generations;
      tp.seed = tree_seed;
      lung = dgflow::build_lung_mesh(dgflow::AirwayTree::generate(tp));
      mesh = std::make_unique<dgflow::Mesh>(lung.coarse);
      mesh->refine(lung.refine_flags_upto_generation(refine_upto_generation));
      geometry = std::make_unique<dgflow::TrilinearGeometry>(mesh->coarse());
    }
    bc.set(dgflow::LungMesh::wall_id, dgflow::BoundaryType::neumann);
    bc.set(dgflow::LungMesh::inlet_id, dgflow::BoundaryType::dirichlet);
    for (const auto id : lung.outlet_ids)
      bc.set(id, dgflow::BoundaryType::dirichlet);
    {
      auto s = tracer.span("matrixfree.reinit");
      mf.reinit(*mesh, *geometry, mf_data());
    }
    laplace.reinit(mf, 0, 0, bc);
    {
      auto s = tracer.span("multigrid.setup");
      HybridMultigrid<float>::Options opts;
      opts.geometry_degree = 1;
      opts.penalty_safety = 4.;
      mg.setup(*mesh, *geometry, lung_degree, bc, opts);
    }
    {
      auto s = tracer.span("operators.laplace_k3.assemble_rhs");
      laplace.assemble_rhs(rhs, f, [](const dgflow::Point &) { return 0.; });
    }
  }

  /// ||b - A x|| / ||b||, recomputed in double with the fine operator.
  double true_residual(const Vector<double> &x) const
  {
    Vector<double> r(rhs.size());
    laplace.vmult(r, x);
    r.sadd(-1., 1., rhs);
    return double(r.l2_norm()) / double(rhs.l2_norm());
  }
};

dgflow::SolverControl control()
{
  dgflow::SolverControl c;
  c.rel_tol = tolerance;
  c.max_iterations = 4000;
  return c;
}

/// Thin timing adapters: solve_cg sees the same operator (including the
/// fused-loop hook interface) and preconditioner, each call under a span.
struct TracedLaplace
{
  const LaplaceOperator<double> &op;
  Tracer &tracer;

  template <typename... Hooks>
  void vmult(Vector<double> &dst, const Vector<double> &src,
             Hooks &&...hooks) const
  {
    auto s = tracer.span("operators.laplace_k3.cg_vmult");
    op.vmult(dst, src, std::forward<Hooks>(hooks)...);
  }
};

struct TracedMultigrid
{
  const HybridMultigrid<float> &mg;
  Tracer &tracer;

  void vmult(Vector<double> &dst, const Vector<double> &src) const
  {
    auto s = tracer.span("multigrid.vcycle");
    mg.vmult(dst, src);
  }
};
} // namespace

std::size_t run_lung_poisson(const Args &args, Tracer &tracer,
                             Result &result)
{
  std::unique_ptr<PoissonCase> pc;
  std::vector<double> setup;
  for (unsigned int r = 0; r < setup_repeats; ++r)
  {
    pc.reset();
    const auto t0 = Clock::now();
    pc = std::make_unique<PoissonCase>(tracer, args.tree_seed,
                                       lung_generations, 0, source(args.seed));
    setup.push_back(seconds_since(t0));
  }
  std::printf("lung_poisson: tree seed %u, %u cells, %zu DoFs, %u levels, "
              "set-up %.3f s\n",
              args.tree_seed, pc->mesh->n_active_cells(), pc->laplace.n_dofs(),
              pc->mg.n_levels(), median(setup));

  const unsigned int n_solves =
    std::max(1u, unsigned(args.seconds * solves_per_second + 0.5));
  std::vector<double> samples, traced, untraced, its;
  Vector<double> x(pc->laplace.n_dofs());
  pc->mg.reset_level_timers();
  for (unsigned int i = 0; i < n_solves; ++i)
  {
    x = 0.;
    // traced runs alternate spanned and bare solves for the overhead
    const bool spanned = args.trace && i % 2 == 0;
    const auto t0 = Clock::now();
    dgflow::SolveStats stats;
    if (spanned)
    {
      auto s = tracer.span("solvers.solve_cg");
      TracedLaplace op{pc->laplace, tracer};
      TracedMultigrid mg{pc->mg, tracer};
      stats = dgflow::solve_cg(op, x, pc->rhs, mg, control());
    }
    else
      stats = dgflow::solve_cg(pc->laplace, x, pc->rhs, pc->mg, control());
    const double wall = seconds_since(t0);
    ++result.attempted;
    const double res = pc->true_residual(x);
    std::printf("lung_poisson: solve %u: %u its, %s, %.3f s, true residual "
                "%.2e\n",
                i, stats.iterations,
                stats.converged ? "converged" : to_string(stats.failure), wall,
                res);
    if (!stats.converged)
    {
      ++result.failed;
      continue;
    }
    result.check(res <= residual_slack * tolerance,
                 "lung_poisson: true residual " + std::to_string(res) +
                   " misses the tolerance bound");
    samples.push_back(wall);
    its.push_back(stats.iterations);
    (spanned ? traced : untraced).push_back(wall);
  }
  result.check(!samples.empty(), "lung_poisson: no g = 3 solve converged");
  // before the larger canary lung raises the high-water mark
  const double rss = peak_rss_mb();

  // the fig10 canary: g = 4, generations <= 1 refined
  dgflow::SolveStats canary;
  {
    Tracer off(false);
    PoissonCase g4(off, args.tree_seed, lung_generations + 1, 1,
                   source(args.seed));
    Vector<double> x4(g4.laplace.n_dofs());
    canary = dgflow::solve_cg(g4.laplace, x4, g4.rhs, g4.mg, control());
    const bool ok =
      canary.converged && g4.true_residual(x4) <= residual_slack * tolerance;
    std::printf("lung_poisson: g = 4 canary (%zu DoFs): %s after %u its\n",
                g4.laplace.n_dofs(),
                ok ? "converged" : (std::string("FAILED(") +
                                    to_string(canary.failure) + ")")
                                     .c_str(),
                canary.iterations);
    canary.converged = ok;
  }

  const std::size_t working_set =
    pc->mf.metric_bytes_stored() + 8 * 6 * pc->laplace.n_dofs();
  if (!args.trace)
  {
    result.add("op_s_p50", median(samples), "s");
    result.add("setup_s", median(setup), "s");
    result.add("peak_rss_mb", rss, "MB");
    return working_set;
  }

  // ---- traced run: per-layer metrics ----
  add_level_shares(pc->mg, result);
  add_self_times(tracer, result, "solvers.solve_cg");
  result.add("solvers.poisson_its", mean(its), "count");
  result.add("solvers.poisson_g4_its", canary.iterations, "count");
  // CG's own vector work: the solve_cg span minus its operator and
  // preconditioner children, per solve
  for (const auto &[layer, seconds] :
       tracer.self_seconds_per_root("solvers.solve_cg"))
    if (layer == "solvers")
      result.add("solvers.poisson_self_s", seconds, "s");
  result.add("failed_share",
             double(result.failed + (canary.converged ? 0 : 1)) /
               double(result.attempted + 1),
             "ratio");
  result.add("trace.overhead.op_s_p50", median(traced) - median(untraced),
             "s");
  result.add("multigrid.vcycle_s", median(tracer.durations("multigrid.vcycle")),
             "s");
  result.add("multigrid.setup_s", median(tracer.durations("multigrid.setup")),
             "s");
  result.add("lung.mesh_build_s", median(tracer.durations("lung.mesh_build")),
             "s");
  result.add("matrixfree.reinit_s",
             median(tracer.durations("matrixfree.reinit")), "s");
  result.add("matrixfree.metric_bytes_per_dof",
             double(pc->mf.metric_bytes_stored()) /
               double(pc->laplace.n_dofs()),
             "B/DoF");
  result.add("matrixfree.metric_compression",
             pc->mf.metric_compression_ratio(), "ratio");

  Vector<double> dst(pc->laplace.n_dofs());
  const std::size_t n = pc->laplace.n_dofs();
  probe_operator(tracer, result, "laplace_k3",
                 computed_bytes(pc->mf, 0, 0, n, n), 20,
                 [&]() { pc->laplace.vmult(dst, x); });
  result.add("operators.laplace_k3.diagonal_s",
             time_median(tracer, "operators.laplace_k3.diagonal", 3,
                         [&]() { pc->laplace.compute_diagonal(dst); }),
             "s");
  return working_set;
}

} // namespace lungbench
