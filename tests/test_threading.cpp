// Shared-memory thread-parallel cell loops (ctest label threading; also run
// under DGFLOW_SANITIZE=thread by run_benchmarks.sh): worker-pool basics
// (every chunk runs exactly once, exceptions propagate, nested regions fall
// back to inline-serial), a stress test of the spin-then-park fork-join
// handoff, strict parsing of the DGFLOW_THREADS knob, and the determinism
// contract of the threaded loops — vmult, the Jacobi-CG solve, the
// Chebyshev sweep, the convective operator and whole INSSolver time steps
// must be BITWISE identical to the single-threaded run at any thread count,
// serially and (vmult, CG, Chebyshev) on four vmpi ranks with per-rank
// thread partitions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/env.h"
#include "concurrency/thread_pool.h"
#include "incns/solver.h"
#include "lung/lung_mesh.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "operators/convective_operator.h"
#include "operators/laplace_operator.h"
#include "solvers/cg.h"
#include "solvers/chebyshev.h"
#include "vmpi/distributed_vector.h"
#include "vmpi/partitioner.h"

using namespace dgflow;

namespace
{
BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}

Mesh make_mesh(const unsigned int refinements)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(refinements);
  return mesh;
}

bool bitwise_equal(const Vector<double> &a, const Vector<double> &b)
{
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Sets an environment variable for the lifetime of one scope.
class ScopedEnv
{
public:
  ScopedEnv(const char *name, const char *value) : name_(name)
  {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

private:
  const char *name_;
};

/// Restores the global pool width when a test body returns or throws.
class ScopedPoolWidth
{
public:
  ScopedPoolWidth()
    : saved_(concurrency::ThreadPool::instance().n_threads())
  {
  }
  ~ScopedPoolWidth()
  {
    concurrency::ThreadPool::instance().set_n_threads(saved_);
  }

private:
  unsigned int saved_;
};
} // namespace

// ---------------------------------------------------------------------------
// worker pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, EveryChunkRunsExactlyOnce)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  for (const unsigned int nt : {1u, 2u, 4u})
  {
    pool.set_n_threads(nt);
    const unsigned int n_chunks = 37;
    std::vector<std::atomic<int>> counts(n_chunks);
    for (auto &c : counts)
      c = 0;
    pool.run_chunks(n_chunks,
                    [&](const unsigned int c) { ++counts[c]; });
    for (unsigned int c = 0; c < n_chunks; ++c)
      EXPECT_EQ(counts[c].load(), 1) << "chunk " << c << " at " << nt
                                     << " threads";
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  // larger than the grain so the range actually splits into several chunks
  const std::size_t n = (std::size_t(1) << 17) + 13;
  std::vector<std::atomic<signed char>> hits(n);
  for (auto &h : hits)
    h = 0;
  pool.parallel_for(n, [&](const std::size_t i0, const std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(int(hits[i].load()), 1) << "index " << i;
}

TEST(ThreadPoolTest, ExceptionsPropagateToTheCaller)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  EXPECT_THROW(pool.run_chunks(16,
                               [&](const unsigned int c) {
                                 if (c == 7)
                                   throw std::runtime_error("chunk 7");
                               }),
               std::runtime_error);
  // the pool stays usable after a failed region
  std::atomic<int> sum{0};
  pool.run_chunks(8, [&](const unsigned int c) { sum += int(c); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPoolTest, NestedRegionsRunInlineSerial)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  std::atomic<int> inner_total{0};
  pool.run_chunks(4, [&](const unsigned int) {
    // a nested region must not deadlock; it degrades to inline execution
    pool.run_chunks(4,
                    [&](const unsigned int c) { inner_total += int(c); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 6);
}

namespace
{
/// Runs one region of @p n_chunks chunks on @p pool and checks that every
/// chunk ran exactly once before run_chunks returned.
void expect_region_runs_every_chunk_once(concurrency::ThreadPool &pool,
                                         const unsigned int n_chunks)
{
  std::vector<std::atomic<int>> counts(n_chunks);
  for (auto &c : counts)
    c = 0;
  pool.run_chunks(n_chunks, [&](const unsigned int c) { ++counts[c]; });
  for (unsigned int c = 0; c < n_chunks; ++c)
    ASSERT_EQ(counts[c].load(), 1) << "chunk " << c << " of " << n_chunks;
}
} // namespace

// The lock-free handoff under load: back-to-back regions while the workers
// spin, resizing, exceptions and destruction in both worker states (spinning
// right after a region, parked once the spin window has run out).
TEST(ThreadPoolTest, HandoffStress)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);

  // 100k back-to-back regions of tiny chunks: each region sees all of its
  // chunks done, and no chunk runs twice or leaks into the next region
  constexpr unsigned int n_regions = 100000, max_chunks = 8;
  std::vector<std::atomic<unsigned int>> stamp(max_chunks);
  for (auto &s : stamp)
    s = ~0u;
  std::atomic<unsigned long> total{0};
  unsigned long expected = 0;
  for (unsigned int r = 0; r < n_regions; ++r)
  {
    const unsigned int n_chunks = 2 + r % (max_chunks - 1);
    pool.run_chunks(n_chunks, [&](const unsigned int c) {
      stamp[c].store(r, std::memory_order_relaxed);
      total.fetch_add(1, std::memory_order_relaxed);
    });
    expected += n_chunks;
    for (unsigned int c = 0; c < n_chunks; ++c)
      ASSERT_EQ(stamp[c].load(), r) << "chunk " << c << " of region " << r;
    ASSERT_EQ(total.load(), expected) << "region " << r;
  }

  // resize right after a region, while the workers spin
  for (const unsigned int nt : {1u, 4u, 2u, 4u})
  {
    expect_region_runs_every_chunk_once(pool, 16);
    pool.set_n_threads(nt);
    EXPECT_EQ(pool.n_threads(), nt);
    expect_region_runs_every_chunk_once(pool, 16);
  }

  // throw from a chunk while the workers spin; the pool stays usable
  expect_region_runs_every_chunk_once(pool, 8);
  EXPECT_THROW(pool.run_chunks(8,
                               [](const unsigned int c) {
                                 if (c == 5)
                                   throw std::runtime_error("chunk 5");
                               }),
               std::runtime_error);
  expect_region_runs_every_chunk_once(pool, 8);

  // external concurrency: with as many rank threads as pool threads no
  // worker may join; with a wider pool at most n_threads - n_ranks do
  pool.set_external_concurrency(4);
  {
    std::set<std::thread::id> ids;
    std::mutex ids_mutex;
    pool.run_chunks(32, [&](const unsigned int) {
      std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    pool.set_n_threads(6);
    ids.clear();
    pool.run_chunks(64, [&](const unsigned int) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), 3u);
    expect_region_runs_every_chunk_once(pool, 16);
  }
  pool.set_external_concurrency(1);

  // destruction with parked workers (well past the spin window) and with
  // spinning workers (right after a region) must join cleanly
  for (const bool parked : {true, false})
  {
    concurrency::ThreadPool local(4);
    expect_region_runs_every_chunk_once(local, 8);
    if (parked)
    {
      // parked workers wake for the next region, then park again
      std::this_thread::sleep_for(concurrency::ThreadPool::spin_window * 20);
      expect_region_runs_every_chunk_once(local, 8);
      std::this_thread::sleep_for(concurrency::ThreadPool::spin_window * 20);
    }
  }
}

// ---------------------------------------------------------------------------
// satellite: strict parsing of DGFLOW_THREADS (a typo'd knob must fail fast
// naming the variable, not silently fall back to serial execution)
// ---------------------------------------------------------------------------

namespace
{
void expect_threads_env_rejects(const char *value)
{
  ScopedEnv env("DGFLOW_THREADS", value);
  try
  {
    concurrency::configured_threads_from_env();
    FAIL() << "DGFLOW_THREADS='" << value << "' was accepted";
  }
  catch (const EnvVarError &e)
  {
    EXPECT_NE(std::strstr(e.what(), "DGFLOW_THREADS"), nullptr)
      << "message does not name DGFLOW_THREADS: " << e.what();
  }
}
} // namespace

TEST(EnvHardening, MalformedThreadKnobFailsFastNamingTheVariable)
{
  for (const char *value : {"banana", "0", "-2", "2000", "3.5", "4x", ""})
    expect_threads_env_rejects(value);
}

TEST(EnvHardening, WellFormedThreadKnobIsAccepted)
{
  {
    ScopedEnv env("DGFLOW_THREADS", "4");
    EXPECT_EQ(concurrency::configured_threads_from_env(), 4u);
  }
  unsetenv("DGFLOW_THREADS");
  EXPECT_EQ(concurrency::configured_threads_from_env(), 1u);
}

// ---------------------------------------------------------------------------
// determinism contract: threaded loops are bitwise identical to serial
// ---------------------------------------------------------------------------

namespace
{
struct ThreadedRun
{
  Vector<double> vmult_dst;
  Vector<double> cg_x;
  Vector<double> cheb_x;
};

/// Builds the operator with an nt-chunk thread partition on an nt-wide pool
/// and runs vmult, a Jacobi-CG solve and two Chebyshev sweeps.
ThreadedRun run_threaded(const Mesh &mesh, const unsigned int degree,
                         const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.n_threads = nt;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  ThreadedRun run;
  Vector<double> src(laplace.n_dofs());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.37 * double(i)) + 0.1;
  laplace.vmult(run.vmult_dst, src);

  Vector<double> diag;
  laplace.compute_diagonal(diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(diag);
  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 200;
  run.cg_x.reinit(laplace.n_dofs());
  const auto stats = solve_cg(laplace, run.cg_x, src, jacobi, control);
  EXPECT_TRUE(stats.converged);

  ChebyshevSmoother<LaplaceOperator<double>, Vector<double>> smoother;
  ChebyshevData cdata;
  cdata.degree = 4;
  smoother.reinit(laplace, diag, cdata);
  run.cheb_x.reinit(laplace.n_dofs());
  smoother.smooth(run.cheb_x, src, /*zero_initial_guess=*/true);
  smoother.smooth(run.cheb_x, src, /*zero_initial_guess=*/false);
  return run;
}
} // namespace

TEST(ThreadDeterminismTest, VmultCGAndChebyshevAreBitwiseIdentical)
{
  ScopedPoolWidth guard;
  const Mesh mesh = make_mesh(2);
  const unsigned int degree = 2;
  const ThreadedRun ref = run_threaded(mesh, degree, 1);
  for (const unsigned int nt : {2u, 4u})
  {
    const ThreadedRun run = run_threaded(mesh, degree, nt);
    EXPECT_TRUE(bitwise_equal(run.vmult_dst, ref.vmult_dst))
      << "vmult differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.cg_x, ref.cg_x))
      << "CG differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.cheb_x, ref.cheb_x))
      << "Chebyshev differs at " << nt << " threads";
  }
}

namespace
{
/// Convective operator C(u) of a smooth field on the unit cube with an
/// nt-chunk partition: time-dependent velocity Dirichlet data on five faces
/// (the boundary functions run on pool threads) and a backflow-stabilized
/// pressure face.
Vector<double> convective_threaded(const Mesh &mesh, const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  const unsigned int degree = 2;
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 2};
  data.n_threads = nt;
  mf.reinit(mesh, geom, data);

  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
      b.kind = FlowBoundary::Kind::pressure;
    else
      b.velocity = [](const Point &p, const double t) {
        return Tensor1<double>(std::sin(p[1] + t), 0.5 * p[0] * p[2],
                               std::cos(p[0]) - t);
      };
    bc[id] = b;
  }
  ConvectiveOperator<double> convective;
  convective.reinit(mf, 0, 0, bc);

  Vector<double> u(mf.n_dofs(0, 3)), dst;
  for (std::size_t i = 0; i < u.size(); ++i)
    u[i] = std::sin(0.23 * double(i)) - 0.3;
  convective.apply(dst, u, 0.25);
  return dst;
}
} // namespace

TEST(ThreadDeterminismTest, ConvectiveOperatorIsBitwiseIdentical)
{
  ScopedPoolWidth guard;
  const Mesh mesh = make_mesh(2);
  const Vector<double> ref = convective_threaded(mesh, 1);
  EXPECT_GT(ref.l2_norm(), 0.);
  for (const unsigned int nt : {2u, 4u})
    EXPECT_TRUE(bitwise_equal(convective_threaded(mesh, nt), ref))
      << "convective operator differs at " << nt << " threads";
}

TEST(ThreadDeterminismTest, ChunkedDotIsIndependentOfThreadCount)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  // large enough to span many 4096-scalar blocks and all 64 outer chunks
  Vector<double> a(300000 + 7), b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
  {
    a[i] = std::sin(0.1 * double(i));
    b[i] = std::cos(0.01 * double(i)) + 1e-3;
  }
  pool.set_n_threads(1);
  const double ref = a.dot(b);
  for (const unsigned int nt : {2u, 3u, 4u, 8u})
  {
    pool.set_n_threads(nt);
    const double d = a.dot(b);
    EXPECT_EQ(std::memcmp(&d, &ref, sizeof(double)), 0)
      << "dot differs at " << nt << " threads";
  }
}

// ---------------------------------------------------------------------------
// threads x ranks: per-rank thread partitions on four vmpi ranks
// ---------------------------------------------------------------------------

namespace
{
struct DistributedRun
{
  Vector<double> vmult_dst;
  Vector<double> cg_x;
  Vector<double> cheb_x;
};

DistributedRun run_distributed_threaded(const Mesh &mesh,
                                        const unsigned int degree,
                                        const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.rank_of_cell = rank_of_cell;
  data.n_ranks = n_ranks;
  data.n_threads = nt;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int dofs_per_cell = mf.dofs_per_cell(0);

  Vector<double> src(laplace.n_dofs());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.37 * double(i)) + 0.1;
  Vector<double> diag;
  laplace.compute_diagonal(diag);

  DistributedRun run;
  run.vmult_dst.reinit(laplace.n_dofs());
  run.cg_x.reinit(laplace.n_dofs());
  run.cheb_x.reinit(laplace.n_dofs());
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), yd;
    xd.copy_owned_from(src);
    laplace.vmult(yd, xd);
    for (std::size_t i = 0; i < yd.size(); ++i)
      run.vmult_dst[yd.first_local_index() + i] = yd.data()[i];

    vmpi::DistributedVector<double> bd, ddiag, sol;
    bd.reinit(part, comm, dofs_per_cell);
    bd.copy_owned_from(src);
    ddiag.reinit(part, comm, dofs_per_cell);
    ddiag.copy_owned_from(diag);
    PreconditionJacobi<double> jd;
    jd.reinit(ddiag);
    SolverControl control;
    control.rel_tol = 1e-10;
    control.max_iterations = 200;
    sol.reinit(part, comm, dofs_per_cell);
    const auto stats = solve_cg(laplace, sol, bd, jd, control);
    EXPECT_TRUE(stats.converged);
    for (std::size_t i = 0; i < sol.size(); ++i)
      run.cg_x[sol.first_local_index() + i] = sol.data()[i];

    // zero-guess sweep, then a nonzero-guess sweep on top
    ChebyshevSmoother<LaplaceOperator<double>,
                      vmpi::DistributedVector<double>>
      smoother;
    smoother.reinit(laplace, ddiag);
    vmpi::DistributedVector<double> xc(part, comm, dofs_per_cell);
    smoother.smooth(xc, bd, /*zero_initial_guess=*/true);
    smoother.smooth(xc, bd, /*zero_initial_guess=*/false);
    for (std::size_t i = 0; i < xc.size(); ++i)
      run.cheb_x[xc.first_local_index() + i] = xc.data()[i];
  });
  return run;
}
} // namespace

TEST(ThreadDeterminismTest, FourRanksTimesThreadsAreBitwiseIdentical)
{
  ScopedPoolWidth guard;
  const Mesh mesh = make_mesh(2);
  const unsigned int degree = 1;
  const DistributedRun ref = run_distributed_threaded(mesh, degree, 1);
  EXPECT_GT(ref.cheb_x.l2_norm(), 0.);
  for (const unsigned int nt : {2u, 4u})
  {
    const DistributedRun run = run_distributed_threaded(mesh, degree, nt);
    EXPECT_TRUE(bitwise_equal(run.vmult_dst, ref.vmult_dst))
      << "distributed vmult differs at " << nt << " threads per rank";
    EXPECT_TRUE(bitwise_equal(run.cg_x, ref.cg_x))
      << "distributed CG differs at " << nt << " threads per rank";
    EXPECT_TRUE(bitwise_equal(run.cheb_x, ref.cheb_x))
      << "distributed Chebyshev differs at " << nt << " threads per rank";
  }
}

// ---------------------------------------------------------------------------
// whole time steps: every sweep of INSSolver::advance on the pool
// ---------------------------------------------------------------------------

namespace
{
struct StepRun
{
  Vector<double> velocity, pressure;
  std::vector<unsigned int> iterations; ///< pressure/viscous/penalty per step
};

/// Ten adaptive steps from rest on the generic bifurcation (no-slip wall,
/// pressure-driven inlet, pressure outlets, rotational pressure condition
/// on), set up and run on an nt-wide pool.
StepRun bifurcation_steps(const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  AirwayTreeParameters tree;
  tree.n_generations = 1;
  tree.jitter = 0.;
  const LungMesh lung = build_lung_mesh(AirwayTree::generate(tree));
  const Mesh mesh(lung.coarse);
  const TrilinearGeometry geom(mesh.coarse());

  FlowBoundaryMap bc;
  FlowBoundary wall;
  wall.velocity = [](const Point &, double) { return Tensor1<double>(); };
  bc[LungMesh::wall_id] = wall;
  FlowBoundary inlet;
  inlet.kind = FlowBoundary::Kind::pressure;
  inlet.pressure = [](const Point &, const double t) {
    return 20. * std::min(1., t / 1e-3);
  };
  bc[LungMesh::inlet_id] = inlet;
  FlowBoundary outlet;
  outlet.kind = FlowBoundary::Kind::pressure;
  outlet.pressure = [](const Point &, double) { return 0.; };
  for (const auto id : lung.outlet_ids)
    bc[id] = outlet;

  INSSolver<double>::Parameters prm;
  prm.degree = 2;
  prm.max_dt = 2e-4;
  prm.rotational_pressure_bc = true;
  prm.geometry_degree = 1;
  INSSolver<double> solver;
  solver.setup(mesh, geom, bc, prm);
  solver.set_initial_condition(
    [](const Point &) { return Tensor1<double>(); });

  StepRun run;
  for (unsigned int step = 0; step < 10; ++step)
  {
    const auto info = solver.advance();
    EXPECT_TRUE(info.success && info.rejections == 0)
      << "step " << step << " at " << nt << " threads";
    run.iterations.push_back(info.pressure.iterations);
    run.iterations.push_back(info.viscous.iterations);
    run.iterations.push_back(info.penalty.iterations);
  }
  run.velocity = solver.velocity();
  run.pressure = solver.pressure();
  return run;
}
} // namespace

TEST(ThreadDeterminismTest, INSSolverStepsAreBitwiseIdentical)
{
  ScopedPoolWidth guard;
  const StepRun ref = bifurcation_steps(1);
  EXPECT_GT(ref.velocity.l2_norm(), 0.);
  for (const unsigned int nt : {2u, 4u})
  {
    const StepRun run = bifurcation_steps(nt);
    EXPECT_TRUE(bitwise_equal(run.velocity, ref.velocity))
      << "velocity differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.pressure, ref.pressure))
      << "pressure differs at " << nt << " threads";
    EXPECT_EQ(run.iterations, ref.iterations)
      << "substep iteration counts differ at " << nt << " threads";
  }
}
