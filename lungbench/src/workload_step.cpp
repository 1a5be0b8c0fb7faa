// lung_step: wall time of one ventilated-lung time step, LungApplication
// with g = 3, k = 3 and default parameters on the bench thread count. It
// runs every solver layer; the operator sweeps and the penalty/viscous CG
// dominate, and set-up is amortised.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "lung.h"
#include "multigrid/hybrid_multigrid.h"

namespace lungbench
{
namespace
{
using dgflow::LungApplication;

// Steps from rest before timing: the first ~40 steps run at max_dt before
// the CFL controller takes over. The workload seed adds 0-15 steps, so it
// picks the state the timed window starts from.
constexpr unsigned int warmup_steps = 40, warmup_seed_range = 16;
// Nominal steps per measured second: the timed step count is fixed by
// --seconds, so both sides of a comparison time the same steps.
constexpr double steps_per_second = 10;
// |inflow - outflow| / max(|inflow|, |outflow|) bound. The DG velocity is
// only weakly divergence-free at the application tolerance 1e-3, and the
// imbalance grows to ~9 % over the first breath's early steps on g = 3.
constexpr double flux_balance_bound = 0.15;
constexpr unsigned int setup_repeats = 5;


/// One advance() with failure accounting and the output checks; returns
/// its wall time, or a negative value when the step failed.
double checked_step(LungApplication &app, Result &result,
                    LungApplication::Solver::StepInfo &info)
{
  const auto t0 = Clock::now();
  info = app.advance();
  const double wall = seconds_since(t0);
  ++result.attempted;
  auto &solver = app.solver();
  result.check(finite(solver.velocity()) && finite(solver.pressure()),
               "lung_step: non-finite state after step " +
                 std::to_string(result.attempted));
  const double in = -solver.boundary_flux(dgflow::LungMesh::inlet_id);
  double out = 0;
  for (const auto id : app.lung_mesh().outlet_ids)
    out += solver.boundary_flux(id);
  const double scale = std::max(std::abs(in), std::abs(out));
  result.check(scale == 0 || std::abs(in - out) <= flux_balance_bound * scale,
               "lung_step: inlet/outlet flux imbalance beyond bound");
  if (!step_converged(info))
  {
    ++result.failed;
    return -1;
  }
  return wall;
}
} // namespace

std::unique_ptr<dgflow::HybridMultigrid<float>>
probe_setup_layers(Tracer &tracer, Result &result, LungApplication &app,
                   const dgflow::LungApplicationParameters &prm)
{
  {
    // lung + mesh: the tree and hex mesh LungApplication builds first
    const double t = time_median(tracer, "lung.mesh_build", 3, [&]() {
      dgflow::AirwayTreeParameters tp = prm.tree;
      tp.n_generations = prm.generations;
      const auto lung = dgflow::build_lung_mesh(
        dgflow::AirwayTree::generate(tp), prm.meshing);
      dgflow::Mesh mesh(lung.coarse);
    });
    result.add("lung.mesh_build_s", t, "s");
  }

  const auto &solver = app.solver();
  const auto &mf = solver.matrix_free();
  const dgflow::TrilinearGeometry geometry(app.mesh().coarse());
  {
    // the velocity/pressure MatrixFree of INSSolver::setup
    typename dgflow::MatrixFree<double>::AdditionalData data;
    const unsigned int k = prm.degree;
    data.degrees = {k, k - 1};
    data.basis_types = {dgflow::BasisType::lagrange_gauss,
                        dgflow::BasisType::lagrange_gauss};
    data.n_q_points_1d = {k + 1, k, k + 2};
    data.geometry_degree = 1;
    data.penalty_safety = mf.penalty_safety();
    const double t = time_median(tracer, "matrixfree.reinit", 2, [&]() {
      dgflow::MatrixFree<double> fresh;
      fresh.reinit(app.mesh(), geometry, data);
    });
    result.add("matrixfree.reinit_s", t, "s");
    result.add("matrixfree.metric_bytes_per_dof",
               double(mf.metric_bytes_stored()) /
                 double(solver.velocity().size() + solver.pressure().size()),
               "B/DoF");
    result.add("matrixfree.metric_compression", mf.metric_compression_ratio(),
               "ratio");
  }

  // the pressure multigrid, rebuilt as INSSolver::setup builds it
  auto mg = std::make_unique<dgflow::HybridMultigrid<float>>();
  typename dgflow::HybridMultigrid<float>::Options opts;
  opts.geometry_degree = 1;
  opts.penalty_safety = mf.penalty_safety();
  const double t = time_median(tracer, "multigrid.setup", 1, [&]() {
    mg->setup(app.mesh(), geometry, prm.degree - 1,
              dgflow::pressure_bc_view(lung_flow_bc(app.lung_mesh())), opts);
  });
  result.add("multigrid.setup_s", t, "s");
  return mg;
}

std::size_t run_lung_step(const Args &args, Tracer &tracer, Result &result)
{
  const auto prm = lung_parameters(args.tree_seed);
  std::unique_ptr<LungApplication> app;
  std::vector<double> setup;
  for (unsigned int r = 0; r < (args.trace ? 2 : setup_repeats); ++r)
  {
    app.reset();
    auto s = tracer.span("lung.construct");
    app = std::make_unique<LungApplication>(prm);
    setup.push_back(s.seconds());
  }
  auto &solver = app->solver();
  const auto &mf = solver.matrix_free();
  const unsigned int warmup =
    warmup_steps + unsigned(args.seed % warmup_seed_range);
  std::printf("lung_step: tree seed %u, %u cells, %zu velocity + %zu "
              "pressure DoFs, set-up %.3f s, %u warm-up steps\n",
              args.tree_seed, app->mesh().n_active_cells(),
              solver.velocity().size(),
              solver.pressure().size(), median(setup), warmup);

  LungApplication::Solver::StepInfo info;
  for (unsigned int i = 0; i < warmup; ++i)
    checked_step(*app, result, info);

  const unsigned int n_steps = std::max(
    20u, unsigned(args.seconds * steps_per_second / (args.trace ? 2 : 1)));
  std::vector<double> samples, traced, untraced;
  std::vector<double> p_its, v_its, pen_its;
  unsigned int rejections = 0;
  for (unsigned int i = 0; i < n_steps; ++i)
  {
    // traced runs alternate spanned and bare steps to measure the overhead
    const bool spanned = args.trace && i % 2 == 0;
    double wall;
    {
      auto s = tracer.span(spanned ? "incns.advance" : "bench.untraced");
      wall = checked_step(*app, result, info);
    }
    rejections += info.rejections;
    if (wall < 0)
      continue;
    samples.push_back(wall);
    (spanned ? traced : untraced).push_back(wall);
    p_its.push_back(info.pressure.iterations);
    v_its.push_back(info.viscous.iterations);
    pen_its.push_back(info.penalty.iterations);
  }
  result.check(!samples.empty(), "lung_step: no step converged");
  std::printf("lung_step: %zu timed steps, p50 %.4f s, p90 %.4f s, "
              "its/step pressure %.2f viscous %.2f penalty %.2f\n",
              samples.size(), median(samples), percentile(samples, 0.9),
              mean(p_its), mean(v_its), mean(pen_its));

  const std::size_t working_set =
    mf.metric_bytes_stored() +
    8 * (16 * solver.velocity().size() + 8 * solver.pressure().size());

  if (!args.trace)
  {
    result.add("op_s_p50", median(samples), "s");
    result.add("setup_s", median(setup), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return working_set;
  }

  // ---- traced run: per-layer metrics ----
  const double p50_traced = median(traced), p50_bare = median(untraced);
  result.add("incns.advance_s", p50_traced, "s");
  result.add("incns.step_s_p90", percentile(samples, 0.9), "s");
  result.add("incns.pressure_fallbacks",
             double(solver.pressure_solver().recoveries()), "count");
  result.add("incns.rejections", double(rejections), "count");
  result.add("solvers.pressure_its", mean(p_its), "count");
  result.add("solvers.viscous_its", mean(v_its), "count");
  result.add("solvers.penalty_its", mean(pen_its), "count");
  result.add("trace.overhead.op_s_p50", p50_traced - p50_bare, "s");
  add_self_times(tracer, result, "incns.advance");

  const auto mg = probe_setup_layers(tracer, result, *app, prm);

  // ---- operators on the solver's own MatrixFree ----
  using Solver = LungApplication::Solver;
  const auto bc = lung_flow_bc(app->lung_mesh());
  const unsigned int u = Solver::u_space, p = Solver::p_space;
  const std::size_t nu = solver.velocity().size();
  const std::size_t np = solver.pressure().size();
  const dgflow::Vector<double> &u_src = solver.velocity();
  const dgflow::Vector<double> &p_src = solver.pressure();
  dgflow::Vector<double> u_dst(nu), p_dst(np);
  const double dt = info.dt, nu_visc = prm.lung.kinematic_viscosity;
  const unsigned int calls = 20;

  dgflow::ConvectiveOperator<double> convective;
  convective.reinit(mf, u, Solver::quad_over, bc);
  probe_operator(tracer, result, "convective",
                 computed_bytes(mf, u, Solver::quad_over, nu, nu), calls,
                 [&]() { convective.apply(u_dst, u_src, 0.); });
  dgflow::MassOperator<double> mass;
  mass.reinit(mf, u, Solver::quad_u);
  // cell-local and collocated: one read of the source, one write of the
  // destination
  probe_operator(tracer, result, "mass_inv", 2. * 8. * double(nu), calls,
                 [&]() { mass.apply_inverse(u_dst, u_src); });
  dgflow::DivergenceOperator<double> divergence;
  divergence.reinit(mf, u, p, Solver::quad_u, bc);
  probe_operator(tracer, result, "divergence",
                 computed_bytes(mf, u, Solver::quad_u, nu, np), calls,
                 [&]() { divergence.vmult(p_dst, u_src); });
  dgflow::GradientOperator<double> gradient;
  gradient.reinit(mf, u, p, Solver::quad_u, bc);
  probe_operator(tracer, result, "gradient",
                 computed_bytes(mf, u, Solver::quad_u, np, nu), calls,
                 [&]() { gradient.vmult(u_dst, p_src); });
  const dgflow::BoundaryMap p_bc = dgflow::pressure_bc_view(bc);
  dgflow::LaplaceOperator<double> laplace;
  laplace.reinit(mf, p, Solver::quad_p, p_bc);
  probe_operator(tracer, result, "laplace_p",
                 computed_bytes(mf, p, Solver::quad_p, np, np), calls,
                 [&]() { laplace.vmult(p_dst, p_src); });
  dgflow::HelmholtzOperator<double> helmholtz;
  helmholtz.reinit(mf, u, Solver::quad_u, bc, nu_visc);
  helmholtz.set_mass_factor(1.5 / dt); // BDF2 gamma0 / dt
  probe_operator(tracer, result, "helmholtz",
                 computed_bytes(mf, u, Solver::quad_u, nu, nu), calls,
                 [&]() { helmholtz.vmult(u_dst, u_src); });
  dgflow::PenaltyOperator<double> penalty;
  penalty.reinit(mf, u, Solver::quad_u, prm.penalty_zeta);
  penalty.update(u_src, dt, prm.penalty_floor);
  probe_operator(tracer, result, "penalty",
                 computed_bytes(mf, u, Solver::quad_u, nu, nu), calls,
                 [&]() { penalty.vmult(u_dst, u_src); });

  result.add("operators.helmholtz.diagonal_s",
             time_median(tracer, "operators.helmholtz.diagonal", 3,
                         [&]() { helmholtz.compute_diagonal(u_dst); }),
             "s");
  result.add("operators.laplace_p.diagonal_s",
             time_median(tracer, "operators.laplace_p.diagonal", 3,
                         [&]() { laplace.compute_diagonal(p_dst); }),
             "s");

  const dgflow::Vector<double> p_rhs = p_src;
  mg->vmult(p_dst, p_rhs);
  mg->reset_level_timers();
  const double vcycle = time_median(tracer, "multigrid.vcycle", 10,
                                    [&]() { mg->vmult(p_dst, p_rhs); });
  result.add("multigrid.vcycle_s", vcycle, "s");
  add_level_shares(*mg, result);

  // ---- substep cost model: iterations x measured call cost ----
  const auto med = [&](const std::string &op) {
    return median(tracer.durations("operators." + op + ".vmult"));
  };
  const double c_conv = med("convective") + med("mass_inv");
  const double c_pres = med("divergence") +
                        mean(p_its) * (med("laplace_p") + vcycle) +
                        med("gradient") + med("mass_inv");
  const double c_visc = mean(v_its) * med("helmholtz");
  const double c_pen = mean(pen_its) * (med("penalty") + med("mass_inv"));
  const double total = c_conv + c_pres + c_visc + c_pen;
  result.add("incns.substep_model.convective_share", c_conv / total, "ratio");
  result.add("incns.substep_model.pressure_share", c_pres / total, "ratio");
  result.add("incns.substep_model.viscous_share", c_visc / total, "ratio");
  result.add("incns.substep_model.penalty_share", c_pen / total, "ratio");

  // ---- concurrency: the same steps from the same state on 1 thread ----
  {
    std::filesystem::create_directories(args.out_dir);
    const std::string state = args.out_dir + "/lung_step_state.ckpt";
    app->save_checkpoint(state);
    const unsigned int k_steps = 6;
    std::vector<double> t4, t1;
    for (unsigned int i = 0; i < k_steps; ++i)
      if (const double t = checked_step(*app, result, info); t > 0)
        t4.push_back(t);
    const dgflow::Vector<double> u4 = solver.velocity();
    app->load_checkpoint(state);
    {
      PoolWidth serial(1);
      for (unsigned int i = 0; i < k_steps; ++i)
        if (const double t = checked_step(*app, result, info); t > 0)
          t1.push_back(t);
    }
    std::filesystem::remove(state);
    result.check(bitwise_equal(u4, solver.velocity()),
                 "lung_step: 1-thread steps differ bitwise from 4-thread");
    result.add("concurrency.step_speedup_4t", median(t1) / median(t4),
               "ratio");
  }
  return working_set;
}

} // namespace lungbench
