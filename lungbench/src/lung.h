#pragma once

// Lung set-up and layer probes shared by the workloads: the g = 3, k = 3
// application parameters, the flow boundary map LungApplication builds, and
// timing of single operator calls on a workload's own MatrixFree.

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "concurrency/thread_pool.h"
#include "lung/lung_application.h"
#include "multigrid/hybrid_multigrid.h"

namespace lungbench
{
/// Generations and degree of every workload's main lung.
constexpr unsigned int lung_generations = 3, lung_degree = 3;

inline dgflow::LungApplicationParameters lung_parameters(
  const unsigned int seed)
{
  dgflow::LungApplicationParameters p;
  p.generations = lung_generations;
  p.degree = lung_degree;
  p.tree.seed = seed;
  return p;
}

/// The boundary kinds LungApplication gives the flow solver (no-slip wall,
/// pressure inlet and outlets). Operator probes only need the kinds; the
/// pressure data is zero.
inline dgflow::FlowBoundaryMap lung_flow_bc(const dgflow::LungMesh &lung)
{
  using dgflow::FlowBoundary;
  dgflow::FlowBoundaryMap bc;
  FlowBoundary wall;
  wall.kind = FlowBoundary::Kind::velocity_dirichlet;
  wall.velocity = [](const dgflow::Point &, double) {
    return dgflow::Tensor1<double>();
  };
  bc[dgflow::LungMesh::wall_id] = wall;
  FlowBoundary open;
  open.kind = FlowBoundary::Kind::pressure;
  open.pressure = [](const dgflow::Point &, double) { return 0.; };
  bc[dgflow::LungMesh::inlet_id] = open;
  for (const auto id : lung.outlet_ids)
    bc[id] = open;
  return bc;
}

/// A step that succeeded on its first attempt with every substep converged.
inline bool
step_converged(const dgflow::LungApplication::Solver::StepInfo &info)
{
  return info.success && info.rejections == 0 && info.pressure.converged &&
         info.viscous.converged && info.penalty.converged;
}

/// Sets the process pool width for the lifetime of the object.
class PoolWidth
{
public:
  explicit PoolWidth(const unsigned int n)
    : pool_(dgflow::concurrency::ThreadPool::instance()),
      width0_(pool_.n_threads())
  {
    pool_.set_n_threads(n);
  }
  ~PoolWidth() { pool_.set_n_threads(width0_); }
  PoolWidth(const PoolWidth &) = delete;
  PoolWidth &operator=(const PoolWidth &) = delete;

private:
  dgflow::concurrency::ThreadPool &pool_;
  unsigned int width0_;
};

/// Computed bytes one operator call moves: the stored metric data of
/// (space, quad) once plus source and destination vectors streamed three
/// times each, the basis of MatrixFree::estimated_vmult_bytes_per_dof.
inline double computed_bytes(const dgflow::MatrixFree<double> &mf,
                             const unsigned int space,
                             const unsigned int quad,
                             const std::size_t src_len,
                             const std::size_t dst_len)
{
  const double n = double(mf.n_dofs(space));
  const double metric =
    mf.estimated_vmult_bytes_per_dof(space, quad) * n - 6. * 8. * n;
  return metric + 3. * 8. * double(src_len + dst_len);
}

/// Times one operator: @p calls calls on the bench thread count, then
/// calls / 2 on one thread, each call under a span named
/// "operators.<name>.vmult" (resp. ".vmult_1t"). Adds the per-layer
/// metrics vmult_s (median), gbs_computed and speedup_4t; main adds
/// roof_frac once the stream bandwidth is known.
inline void probe_operator(Tracer &tracer, Result &result,
                           const std::string &name, const double bytes,
                           const unsigned int calls,
                           const std::function<void()> &call)
{
  const std::string span4 = "operators." + name + ".vmult",
                    span1 = span4 + "_1t";
  call(); // first touch of the destination and scratch
  for (unsigned int i = 0; i < calls; ++i)
  {
    auto s = tracer.span(span4.c_str());
    call();
  }
  {
    PoolWidth serial(1);
    for (unsigned int i = 0; i < std::max(1u, calls / 2); ++i)
    {
      auto s = tracer.span(span1.c_str());
      call();
    }
  }
  const double t4 = median(tracer.durations(span4)),
               t1 = median(tracer.durations(span1));
  result.add("operators." + name + ".vmult_s", t4, "s");
  result.add("operators." + name + ".gbs_computed", bytes / t4 / 1e9, "GB/s");
  result.add("operators." + name + ".speedup_4t", t1 / t4, "ratio");
}

/// Median wall time of @p reps calls of @p f, each under span @p name.
inline double time_median(Tracer &tracer, const char *name,
                          const unsigned int reps,
                          const std::function<void()> &f)
{
  for (unsigned int r = 0; r < reps; ++r)
  {
    auto s = tracer.span(name);
    f();
  }
  return median(tracer.durations(name));
}

/// V-cycle time shares accumulated by @p mg since its last
/// reset_level_timers(), grouped as in the paper's Fig. 10 breakdown.
inline void add_level_shares(const dgflow::HybridMultigrid<float> &mg,
                             Result &result)
{
  const std::vector<double> &levels = mg.level_seconds();
  double total = mg.amg_seconds(), intermediate = 0;
  for (const double s : levels)
    total += s;
  for (std::size_t l = 0; l + 2 < levels.size(); ++l)
    intermediate += levels[l];
  const auto share = [total](const double s) {
    return total > 0 ? s / total : 0.;
  };
  const std::size_t n = levels.size();
  result.add("multigrid.level_share.fine", share(n ? levels[n - 1] : 0),
             "ratio");
  result.add("multigrid.level_share.second", share(n > 1 ? levels[n - 2] : 0),
             "ratio");
  result.add("multigrid.level_share.intermediate", share(intermediate),
             "ratio");
  result.add("amg.coarse_share", share(mg.amg_seconds()), "ratio");
}

/// Times the set-up layers of a LungApplication from outside: tree and mesh
/// build (lung.mesh_build_s), the velocity/pressure MatrixFree reinit and
/// its stored metric bytes, and the pressure multigrid set-up, which it
/// returns for further probes.
std::unique_ptr<dgflow::HybridMultigrid<float>>
probe_setup_layers(Tracer &tracer, Result &result,
                   dgflow::LungApplication &app,
                   const dgflow::LungApplicationParameters &prm);

/// Adds "<layer>.self_s": each layer's self time per workload operation,
/// the operation being a span named @p root.
inline void add_self_times(const Tracer &tracer, Result &result,
                           const std::string &root)
{
  for (const auto &[layer, seconds] : tracer.self_seconds_per_root(root))
    if (layer != "bench")
      result.add(layer + ".self_s", seconds, "s");
}

inline bool bitwise_equal(const dgflow::Vector<double> &a,
                          const dgflow::Vector<double> &b)
{
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

inline bool finite(const dgflow::Vector<double> &v)
{
  return std::isfinite(double(v.l2_norm()));
}

} // namespace lungbench
