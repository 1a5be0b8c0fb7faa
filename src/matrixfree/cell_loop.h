#pragma once

// Shared cell/face loop driver of the operator contract
// (operators/README.md): every matrix-free operator evaluates its kernels
// through cell_face_loop (or cell_only_loop for cell-local operators), which
// owns the traversal order, the distributed ghost-exchange overlap and the
// shared-memory thread parallelization.
//
// Operators hand the driver a KERNEL FACTORY instead of ready-made kernels:
// a generic callable make_kernels(dst_view) that constructs its evaluators
// and returns LoopKernels{cell, inner, boundary} writing through dst_view.
// The driver decides how many kernel sets exist: one over the real dst for
// the serial sweep, one per thread chunk (each with private evaluator
// scratch, writing through a ChunkDst mask) for the parallel sweep. The
// threaded traversal (MatrixFree::thread_partition) runs in two phases:
//
//   0  each chunk: cell integrals of its own batches
//   1  each chunk: its face list (cross-chunk faces are evaluated by every
//      touching chunk, writes masked to the chunk's cell range)
//
// Every dst entry accumulates cell integral first, then its faces in
// ascending face-batch order with the minus side before the plus side —
// exactly the serial order, for any chunk count — so vmult results are
// BITWISE IDENTICAL to the serial sweep at any thread count (the determinism
// argument is spelled out in docs/DEVELOPING.md, "Shared-memory parallel
// loops").

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/vector.h"
#include "concurrency/thread_pool.h"
#include "instrumentation/profiler.h"
#include "matrixfree/matrix_free.h"

namespace dgflow
{
namespace internal
{
/// Destination mask of one thread chunk: behaves like the wrapped vector but
/// owns only the cells in [cell_begin, cell_end). The evaluators' generic
/// distribute_local_to_global overloads consult is_owned_element per lane,
/// which is exactly the cut-face masking the distributed path uses — a face
/// evaluated by two chunks writes each cell from its owning chunk only.
template <typename VectorType>
struct ChunkDst
{
  using value_type = typename VectorType::value_type;

  VectorType &vec;
  index_t cell_begin, cell_end;

  value_type *data() { return vec.data(); }
  const value_type *data() const { return vec.data(); }
  std::size_t size() const { return vec.size(); }

  bool is_owned_element(const std::size_t cell) const
  {
    if (cell < cell_begin || cell >= cell_end)
      return false;
    if constexpr (is_distributed_vector_v<VectorType>)
      return vec.is_owned_element(cell);
    else
      return true;
  }

  std::size_t local_dof_offset(const std::size_t cell,
                               const unsigned int n_dofs) const
  {
    if constexpr (is_distributed_vector_v<VectorType>)
      return vec.local_dof_offset(cell, n_dofs);
    else
      return cell * n_dofs;
  }

  value_type &operator[](const std::size_t i) { return vec[i]; }
  value_type operator[](const std::size_t i) const { return vec[i]; }
};

inline double seconds_since(const std::chrono::steady_clock::time_point t0)
{
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
    .count();
}

/// Publishes the load-balance gauges of one threaded sweep: parallel
/// efficiency mean/max (1 = perfectly balanced) and imbalance max/mean.
inline void publish_thread_balance(const std::vector<double> &chunk_seconds)
{
  double sum = 0., peak = 0.;
  for (const double s : chunk_seconds)
  {
    sum += s;
    peak = std::max(peak, s);
  }
  if (peak <= 0.)
    return;
  const double mean = sum / double(chunk_seconds.size());
  DGFLOW_PROF_GAUGE("mf_thread_imbalance", peak / mean);
  DGFLOW_PROF_GAUGE("mf_thread_efficiency", mean / peak);
}
} // namespace internal

/// Kernel set one cell_face_loop kernel factory returns: batch-index
/// callables for the cell integrals, interior faces and boundary faces, all
/// writing through the dst view the factory received.
template <typename CellFn, typename InnerFn, typename BoundaryFn>
struct LoopKernels
{
  CellFn cell;
  InnerFn inner;
  BoundaryFn boundary;
};

template <typename CellFn, typename InnerFn, typename BoundaryFn>
LoopKernels(CellFn, InnerFn, BoundaryFn)
  -> LoopKernels<CellFn, InnerFn, BoundaryFn>;

namespace internal
{
/// Two-phase thread-parallel traversal (see the file comment). Factored
/// out of cell_face_loop; part.chunks.size() >= 2.
template <typename Number, typename VectorType, typename KernelFactory>
void threaded_cell_face_loop(const MatrixFree<Number> &mf, VectorType &dst,
                             const VectorType &src,
                             KernelFactory &&make_kernels,
                             const typename MatrixFree<Number>::ThreadPartition
                               &part)
{
  constexpr bool distributed = is_distributed_vector_v<VectorType>;

  const unsigned int n_chunks = part.chunks.size();
  using View = ChunkDst<VectorType>;
  std::vector<View> views;
  views.reserve(n_chunks);
  for (const auto &ch : part.chunks)
    views.push_back(View{dst, ch.cell_begin, ch.cell_end});
  using KernelsT = decltype(make_kernels(views.front()));
  std::vector<KernelsT> kernels;
  kernels.reserve(n_chunks);
  for (auto &v : views)
    kernels.push_back(make_kernels(v));

  const bool measure = prof::Profiler::instance().enabled();
  std::vector<double> chunk_seconds(n_chunks, 0.);
  auto &pool = concurrency::ThreadPool::instance();

  if constexpr (distributed)
    src.update_ghost_values_start();

  // phase 0: per-chunk cell integrals
  pool.run_chunks(n_chunks, [&](const unsigned int c) {
    const auto t0 = std::chrono::steady_clock::now();
    DGFLOW_PROF_SCOPE("mf_threaded_cells");
    const auto &ch = part.chunks[c];
    for (unsigned int b = ch.batch_begin; b < ch.batch_end; ++b)
      kernels[c].cell(b);
    if (measure)
      chunk_seconds[c] += seconds_since(t0);
  });

  if constexpr (distributed)
    src.update_ghost_values_finish();

  // phase 1: per-chunk face lists
  pool.run_chunks(n_chunks, [&](const unsigned int c) {
    const auto t0 = std::chrono::steady_clock::now();
    DGFLOW_PROF_SCOPE("mf_threaded_faces");
    for (const unsigned int b : part.chunks[c].face_list)
    {
      if (mf.face_batch(b).interior)
        kernels[c].inner(b);
      else
        kernels[c].boundary(b);
    }
    if (measure)
      chunk_seconds[c] += seconds_since(t0);
  });

  if (measure)
    publish_thread_balance(chunk_seconds);
  unsigned long long n_face_evals = 0;
  for (const auto &ch : part.chunks)
    n_face_evals += ch.face_list.size();
  DGFLOW_PROF_COUNT("mf_cell_batches",
                    part.chunks.back().batch_end -
                      part.chunks.front().batch_begin);
  DGFLOW_PROF_COUNT("mf_face_batches",
                    static_cast<long long>(n_face_evals));
}
} // namespace internal

/// Runs the full cell + face traversal of one operator application.
/// make_kernels(dst_view) must return LoopKernels writing through dst_view;
/// the batch callables read src / accumulate into the view themselves. dst
/// must already be zeroed.
template <typename Number, typename VectorType, typename KernelFactory>
void cell_face_loop(const MatrixFree<Number> &mf, VectorType &dst,
                    const VectorType &src, KernelFactory &&make_kernels)
{
  constexpr bool distributed = is_distributed_vector_v<VectorType>;

  int rank = -1;
  if constexpr (distributed)
    rank = src.rank();
  const auto &part = mf.thread_partition(rank);
  if (part.chunks.size() > 1)
  {
    internal::threaded_cell_face_loop(mf, dst, src, make_kernels, part);
    return;
  }

  auto kernels = make_kernels(dst);
  if constexpr (distributed)
  {
    const auto [cell_begin, cell_end] = mf.cell_batch_range(rank);
    src.update_ghost_values_start();
    for (unsigned int b = cell_begin; b < cell_end; ++b)
      kernels.cell(b);
    src.update_ghost_values_finish();
    const auto &face_list = mf.face_batches_of_rank(rank);
    for (const unsigned int b : face_list)
    {
      if (mf.face_batch(b).interior)
        kernels.inner(b);
      else
        kernels.boundary(b);
    }
    DGFLOW_PROF_COUNT("mf_cell_batches", cell_end - cell_begin);
    DGFLOW_PROF_COUNT("mf_face_batches", face_list.size());
  }
  else
  {
    for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
      kernels.cell(b);
    const unsigned int n_faces = mf.n_face_batches();
    for (unsigned int b = 0; b < n_faces; ++b)
    {
      if (b < mf.n_inner_face_batches())
        kernels.inner(b);
      else
        kernels.boundary(b);
    }
    DGFLOW_PROF_COUNT("mf_cell_batches", mf.n_cell_batches());
    DGFLOW_PROF_COUNT("mf_face_batches", n_faces);
  }
}

/// Runs f(chunk, batch_begin, batch_end) over the cell-batch chunks of the
/// serial traversal's thread partition, on the pool; a serial partition is
/// one call f(0, 0, n_cell_batches()). For cell-local sweeps outside the
/// operator contract (vorticity, penalty parameters, CFL scan): their
/// writes must be disjoint per batch and any reduction across chunks must
/// not depend on the order — then the result is bitwise identical to the
/// serial sweep. n_cell_batch_chunks() sizes per-chunk partial results.
template <typename Number, typename F>
void for_each_cell_batch_chunk(const MatrixFree<Number> &mf, F &&f)
{
  const auto &chunks = mf.thread_partition(-1).chunks;
  if (chunks.size() > 1)
    concurrency::ThreadPool::instance().run_chunks(
      chunks.size(), [&](const unsigned int c) {
        f(c, chunks[c].batch_begin, chunks[c].batch_end);
      });
  else
    f(0u, 0u, mf.n_cell_batches());
}

template <typename Number>
unsigned int n_cell_batch_chunks(const MatrixFree<Number> &mf)
{
  return std::max<unsigned int>(1, mf.thread_partition(-1).chunks.size());
}

/// Cell-only variant (no face terms, serial vectors). make_cell(dst_view)
/// returns the single cell-batch callable; cell-local writes are disjoint
/// per chunk, so the threaded sweep hands every chunk the real dst and needs
/// no masking.
template <typename Number, typename VectorType, typename KernelFactory>
void cell_only_loop(const MatrixFree<Number> &mf, VectorType &dst,
                    KernelFactory &&make_cell)
{
  const auto &part = mf.thread_partition(-1);
  if (part.chunks.size() > 1)
  {
    using KernelT = decltype(make_cell(dst));
    std::vector<KernelT> kernels;
    kernels.reserve(part.chunks.size());
    for (std::size_t c = 0; c < part.chunks.size(); ++c)
      kernels.push_back(make_cell(dst));
    concurrency::ThreadPool::instance().run_chunks(
      part.chunks.size(), [&](const unsigned int c) {
        const auto &ch = part.chunks[c];
        for (unsigned int b = ch.batch_begin; b < ch.batch_end; ++b)
          kernels[c](b);
      });
  }
  else
  {
    auto cell_kernel = make_cell(dst);
    for (unsigned int b = 0; b < mf.n_cell_batches(); ++b)
      cell_kernel(b);
  }
  DGFLOW_PROF_COUNT("mf_cell_batches", mf.n_cell_batches());
}

} // namespace dgflow
