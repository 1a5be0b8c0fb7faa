// Shared-memory thread scaling of the matrix-free solver stack on the lung
// geometry: times the SIP Laplace vmult and a Jacobi-CG solve
// (degree 3, the paper's production configuration) at 1/2/4 pool threads
// and cross-checks that every threaded result is BITWISE identical to the
// single-threaded sweep — the determinism contract of the thread-parallel
// cell loops (docs/DEVELOPING.md, "Shared-memory parallel loops").
//
// The speedup columns are wall-clock measurements of the machine the bench
// runs on, which it reports as its hardware concurrency (the reference host
// is a 4-core AVX-512 VM); the bitwise check is the correctness gate, the
// scaling numbers document the hardware.
//
// A second, informational section measures the pool's fork-join cost: the
// p50/p90 wall time of one run_chunks(4, .) region whose chunks each do
// about 2, 16 or 40 us of work, against the same four chunks run serially.
// The solver's pressure V-cycle and Krylov vector updates are made of such
// short regions, so this is what decides whether they scale at all.
//
// Machine-readable output: when DGFLOW_BENCH_JSON is set, the results are
// archived as JSON (schema dgflow-bench-threads-v1, fork-join rows under
// "fork_join"); run_benchmarks.sh stores it as
// bench_results/BENCH_threads.json. The fast --smoke variant (also run under
// `ctest -L perf`) shrinks the mesh and repetitions to verify harness and
// bitwise gate end to end.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "concurrency/thread_pool.h"
#include "operators/laplace_operator.h"
#include "solvers/cg.h"

using namespace dgflow;
using namespace dgflow::bench;

namespace
{
struct Result
{
  std::string name;
  unsigned int n_threads;
  std::size_t n_dofs;
  double seconds;
  double dofs_per_s;
  double speedup; ///< vs the 1-thread row of the same kernel
  bool bitwise;   ///< memcmp-equal to the 1-thread result
};

/// Fork-join latency of one region size (seconds per region).
struct ForkJoinResult
{
  double chunk_us;      ///< nominal work per chunk
  double pool_p50, pool_p90;
  double serial_p50, serial_p90;
};

/// Dependent floating-point recurrence: @p iterations steps take a fixed
/// time on a given core and cannot be vectorized or elided.
double busy_work(const unsigned int iterations, const double seed)
{
  double x = seed;
  for (unsigned int i = 0; i < iterations; ++i)
    x = x * 0.999999 + 1e-7;
  return x;
}

double percentile(std::vector<double> v, const double q)
{
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, std::size_t(q * double(v.size())))];
}

/// Times run_chunks(4, .) on a 4-wide pool against the four chunks run
/// inline, for chunks of about @p chunk_us microseconds each.
ForkJoinResult measure_fork_join(const double chunk_us,
                                 const unsigned int repetitions)
{
  using Clock = std::chrono::steady_clock;
  const auto seconds_of = [](const Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  // calibrate the iteration count of one chunk on this thread
  unsigned int iterations = 1000;
  volatile double sink = 0;
  for (int round = 0; round < 3; ++round)
  {
    const auto t0 = Clock::now();
    sink = sink + busy_work(iterations, 1.);
    const double s = seconds_of(Clock::now() - t0);
    iterations = std::max(1u, unsigned(double(iterations) * chunk_us * 1e-6 /
                                       std::max(s, 1e-9)));
  }

  auto &pool = concurrency::ThreadPool::instance();
  double out[4];
  const auto chunk = [&](const unsigned int c) {
    out[c] = busy_work(iterations, 1. + c);
  };
  std::vector<double> pool_s, serial_s;
  pool_s.reserve(repetitions);
  serial_s.reserve(repetitions);
  for (unsigned int r = 0; r < repetitions; ++r)
  {
    auto t0 = Clock::now();
    pool.run_chunks(4, chunk);
    pool_s.push_back(seconds_of(Clock::now() - t0));
    t0 = Clock::now();
    for (unsigned int c = 0; c < 4; ++c)
      chunk(c);
    serial_s.push_back(seconds_of(Clock::now() - t0));
  }
  sink = sink + out[0] + out[3];
  return {chunk_us, percentile(pool_s, 0.5), percentile(pool_s, 0.9),
          percentile(serial_s, 0.5), percentile(serial_s, 0.9)};
}

bool bitwise_equal(const Vector<double> &a, const Vector<double> &b)
{
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void write_json(const char *path, const std::vector<Result> &results,
                const std::vector<ForkJoinResult> &fork_join,
                const double vmult_speedup4, const double cg_speedup4,
                const bool all_bitwise, const bool smoke)
{
  std::FILE *f = std::fopen(path, "w");
  if (!f)
  {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"dgflow-bench-threads-v1\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"vmult_speedup_4_threads\": %.6g,\n", vmult_speedup4);
  std::fprintf(f, "  \"cg_speedup_4_threads\": %.6g,\n", cg_speedup4);
  std::fprintf(f, "  \"bitwise_identical\": %s,\n",
               all_bitwise ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i)
  {
    const Result &r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"n_threads\": %u, "
                 "\"n_dofs\": %zu, \"seconds\": %.6e, "
                 "\"dofs_per_s\": %.6e, \"speedup\": %.6g, "
                 "\"bitwise\": %s}%s\n",
                 r.name.c_str(), r.n_threads, r.n_dofs, r.seconds,
                 r.dofs_per_s, r.speedup, r.bitwise ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fork_join\": [\n");
  for (std::size_t i = 0; i < fork_join.size(); ++i)
  {
    const ForkJoinResult &r = fork_join[i];
    std::fprintf(f,
                 "    {\"chunks\": 4, \"chunk_us\": %.3g, "
                 "\"pool_p50_s\": %.6e, \"pool_p90_s\": %.6e, "
                 "\"serial_p50_s\": %.6e, \"serial_p90_s\": %.6e}%s\n",
                 r.chunk_us, r.pool_p50, r.pool_p90, r.serial_p50,
                 r.serial_p90, i + 1 < fork_join.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("benchmark JSON archived to %s\n", path);
}
} // namespace

int main(int argc, char **argv)
{
  dgflow::prof::EnvSession profile_session;
  const bool smoke = (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
                     std::getenv("DGFLOW_BENCH_SMOKE") != nullptr;

  print_header(
    "Thread scaling: SIP Laplace vmult + Jacobi-CG, lung g=3, k=3",
    "shared-memory parallel cell loops: bitwise-deterministic speedup "
    "at 1/2/4 threads");
  std::printf("hardware concurrency: %u\n",
              std::thread::hardware_concurrency());

  const unsigned int degree = 3;
  const LungMesh lung = lung_mesh_for_generations(smoke ? 1 : 3);
  Mesh mesh(lung.coarse);
  if (!smoke)
    while (mesh.n_active_cells() * pow_int(degree + 1, 3) < 2e5)
      mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());

  BoundaryMap bc;
  bc.set(LungMesh::wall_id, BoundaryType::neumann);
  bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const auto id : lung.outlet_ids)
    bc.set(id, BoundaryType::dirichlet);

  const unsigned int rounds = smoke ? 2 : 5;
  const std::vector<unsigned int> thread_counts = {1, 2, 4};
  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int pool_width0 = pool.n_threads();

  std::vector<Result> results;
  Table table({"threads", "MDoF", "vmult [DoF/s]", "vmult speedup",
               "CG [it/s]", "CG speedup", "bitwise"});

  Vector<double> dst_ref, x_ref;
  double vmult_t1 = 0., cg_t1 = 0.;
  double vmult_speedup4 = 0., cg_speedup4 = 0.;
  bool all_bitwise = true;

  for (const unsigned int nt : thread_counts)
  {
    pool.set_n_threads(nt);
    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {degree};
    data.n_q_points_1d = {degree + 1};
    data.geometry_degree = 1;
    data.n_threads = nt;
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, bc);

    Vector<double> src(laplace.n_dofs()), dst(laplace.n_dofs());
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = std::sin(0.37 * double(i)) + 0.1;
    const std::size_t n_dofs = laplace.n_dofs();

    const unsigned int n_mv =
      std::max<std::size_t>(smoke ? 1 : 3, 4e6 / n_dofs);
    const double t_vmult = best_of(rounds, [&]() {
                             for (unsigned int i = 0; i < n_mv; ++i)
                               laplace.vmult(dst, src);
                           }) /
                           n_mv;

    // Jacobi-preconditioned CG
    Vector<double> diag;
    laplace.compute_diagonal(diag);
    PreconditionJacobi<double> jacobi;
    jacobi.reinit(diag);
    SolverControl control;
    control.max_iterations = smoke ? 5 : 25;
    control.rel_tol = 1e-12;
    Vector<double> x(n_dofs);
    SolveStats stats;
    const double t_cg = best_of(rounds, [&]() {
      x = 0.;
      stats = solve_cg(laplace, x, src, jacobi, control);
    });
    const double it_per_s = double(std::max(1u, stats.iterations)) / t_cg;

    Result rv{"laplace_vmult", nt, n_dofs, t_vmult, double(n_dofs) / t_vmult,
              1., true};
    Result rc{"cg", nt, n_dofs, t_cg, it_per_s, 1., true};
    if (nt == 1)
    {
      dst_ref.reinit(n_dofs, true);
      dst_ref.equ(1., dst);
      x_ref.reinit(n_dofs, true);
      x_ref.equ(1., x);
      vmult_t1 = t_vmult;
      cg_t1 = t_cg;
    }
    else
    {
      rv.bitwise = bitwise_equal(dst, dst_ref);
      rc.bitwise = bitwise_equal(x, x_ref);
      rv.speedup = vmult_t1 / t_vmult;
      rc.speedup = cg_t1 / t_cg;
      all_bitwise = all_bitwise && rv.bitwise && rc.bitwise;
      if (nt == 4)
      {
        vmult_speedup4 = rv.speedup;
        cg_speedup4 = rc.speedup;
      }
    }
    results.push_back(rv);
    results.push_back(rc);

    table.add_row(nt, Table::format(n_dofs / 1e6, 3),
                  Table::sci(rv.dofs_per_s, 3), Table::format(rv.speedup, 2),
                  Table::format(it_per_s, 2), Table::format(rc.speedup, 2),
                  rv.bitwise && rc.bitwise ? "yes" : "NO");
  }
  table.print();

  // fork-join latency of one 4-chunk region (informational, not a gate)
  pool.set_n_threads(4);
  std::vector<ForkJoinResult> fork_join;
  Table fj_table({"chunk [us]", "pool p50 [us]", "pool p90 [us]",
                  "serial p50 [us]", "serial p90 [us]", "p50 speedup"});
  for (const double chunk_us : {2., 16., 40.})
  {
    const unsigned int reps = smoke ? 50 : unsigned(20000 / chunk_us);
    const ForkJoinResult r = measure_fork_join(chunk_us, reps);
    fork_join.push_back(r);
    fj_table.add_row(Table::format(chunk_us, 2),
                     Table::format(r.pool_p50 * 1e6, 3),
                     Table::format(r.pool_p90 * 1e6, 3),
                     Table::format(r.serial_p50 * 1e6, 3),
                     Table::format(r.serial_p90 * 1e6, 3),
                     Table::format(r.serial_p50 / r.pool_p50, 2));
  }
  pool.set_n_threads(pool_width0);
  std::printf("\nfork-join latency, run_chunks(4, .) at 4 threads vs the "
              "same 4 chunks serially:\n");
  fj_table.print();

  std::printf("\nbitwise determinism gate: %s\n",
              all_bitwise ? "PASS (all threaded results memcmp-equal to "
                            "1 thread)"
                          : "FAIL");
  std::printf("4-thread speedup (this machine, %u hardware threads): "
              "vmult %.2fx, CG %.2fx\n",
              std::thread::hardware_concurrency(), vmult_speedup4,
              cg_speedup4);

  if (const char *path = std::getenv("DGFLOW_BENCH_JSON"))
    write_json(path, results, fork_join, vmult_speedup4, cg_speedup4,
               all_bitwise, smoke);

  return all_bitwise ? 0 : 1;
}
