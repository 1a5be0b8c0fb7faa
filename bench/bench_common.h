#pragma once

// Shared helpers of the benchmark harness: the geometries the paper's
// evaluation uses (generic bifurcation, lung airway trees), timing
// protocol (best sample of repeated runs, Section 4), and a stream-triad
// measurement to place the local machine's memory-bandwidth roofline.

#include <cstdio>
#include <string>

#include "common/table.h"
#include "common/vector.h"
#include "common/timer.h"
#include "instrumentation/profiler.h"
#include "instrumentation/solve_stats.h"
#include "lung/lung_mesh.h"
#include "mesh/generators.h"

namespace dgflow::bench
{
/// The "generic bifurcation" of the paper (Figs. 8-9): one cylinder
/// splitting into two outlets with a 60-degree opening angle.
inline LungMesh bifurcation_mesh()
{
  AirwayTreeParameters prm;
  prm.n_generations = 1;
  prm.branch_angle_major = 30. * M_PI / 180.;
  prm.branch_angle_minor = 30. * M_PI / 180.;
  prm.jitter = 0.;
  // similar element counts as the paper's 468-cell bifurcation
  return build_lung_mesh(AirwayTree::generate(prm));
}

inline LungMesh lung_mesh_for_generations(const unsigned int g)
{
  AirwayTreeParameters prm;
  prm.n_generations = g;
  return build_lung_mesh(AirwayTree::generate(prm));
}

/// Best-of-N timing of a kernel, following the paper's protocol.
template <typename F>
double best_of(const unsigned int repetitions, const F &f)
{
  double best = 1e300;
  for (unsigned int r = 0; r < repetitions; ++r)
  {
    Timer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Measured stream-triad bandwidth [B/s] of this machine with @p n_threads
/// streaming concurrently (sets the memory roofline for Fig. 7 and
/// calibrates the scaling model). The sweep is cut into fixed contiguous
/// per-thread ranges — the same disjoint-write discipline the solver's
/// parallel loops use — so the measured rate is what those loops can reach.
inline double measure_stream_bandwidth(const unsigned int n_threads = 1)
{
  const std::size_t n = 32 * 1024 * 1024; // 3 x 256 MB traffic
  Vector<double> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    b[i] = 1.0 + double(i % 17);
    c[i] = 0.5 * double(i % 11);
  }
  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int saved = pool.n_threads();
  if (n_threads > 1)
    pool.set_n_threads(n_threads);
  const unsigned int n_chunks = std::max(1u, n_threads);
  const double t = best_of(5, [&]() {
    double *DGFLOW_RESTRICT ad = a.data();
    const double *DGFLOW_RESTRICT bd = b.data();
    const double *DGFLOW_RESTRICT cd = c.data();
    pool.run_chunks(n_chunks, [&](const unsigned int ch) {
      const std::size_t begin = n * ch / n_chunks;
      const std::size_t end = n * (ch + 1) / n_chunks;
      for (std::size_t i = begin; i < end; ++i)
        ad[i] = bd[i] + 1.7 * cd[i];
    });
  });
  if (n_threads > 1)
    pool.set_n_threads(saved);
  return 3. * n * sizeof(double) / t;
}

/// A solve's iteration count as a bench prints it: the count of a converged
/// solve, FAILED(<reason>@<iterations>) otherwise — a failed solve is never
/// reported as an iteration count.
inline std::string iterations_or_failure(const SolveStats &stats)
{
  if (stats.converged)
    return std::to_string(stats.iterations);
  return std::string("FAILED(") + to_string(stats.failure) + "@" +
         std::to_string(stats.iterations) + ")";
}

inline void print_header(const char *title, const char *paper_ref)
{
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

} // namespace dgflow::bench
