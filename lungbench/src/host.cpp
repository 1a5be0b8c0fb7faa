#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <vector>

#include "bench.h"
#include "common/aligned_vector.h"
#include "concurrency/thread_pool.h"
#include "fem/kernel_backend.h"

#ifndef LUNGBENCH_COMPILER
#define LUNGBENCH_COMPILER "unknown"
#endif
#ifndef LUNGBENCH_CXX_FLAGS
#define LUNGBENCH_CXX_FLAGS "unknown"
#endif

namespace lungbench
{
namespace
{
std::string read_first_line(const std::string &path)
{
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "<size> x <count>" of the data or unified caches of @p level, counting
/// each distinct set of sharing CPUs once.
std::string cache_size(const int level)
{
  std::string size;
  std::set<std::string> instances;
  for (unsigned int cpu = 0;; ++cpu)
  {
    const std::string base =
      "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/cache/";
    if (read_first_line(base + "index0/level").empty())
      break;
    for (unsigned int idx = 0; idx < 8; ++idx)
    {
      const std::string dir = base + "index" + std::to_string(idx) + "/";
      if (read_first_line(dir + "level") != std::to_string(level) ||
          read_first_line(dir + "type") == "Instruction")
        continue;
      size = read_first_line(dir + "size");
      instances.insert(read_first_line(dir + "shared_cpu_list"));
    }
  }
  return size.empty() ? "unknown"
                      : size + " x " + std::to_string(instances.size());
}
} // namespace

HostInfo host_info()
{
  HostInfo h;
  h.nproc = static_cast<unsigned int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.compiler = LUNGBENCH_COMPILER;
  h.flags = LUNGBENCH_CXX_FLAGS;
#ifdef DGFLOW_PROFILE
  h.profile_compiled = true;
#endif
  h.kernel_backend =
    dgflow::kernel_backend_name(dgflow::default_kernel_backend());
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0)
    {
      h.cpu = line.substr(line.find(':') + 2);
      break;
    }
  h.l2 = cache_size(2);
  h.l3 = cache_size(3);
  return h;
}

double stream_triad_gbs(const unsigned int threads,
                        const std::size_t bytes_total)
{
  auto &pool = dgflow::concurrency::ThreadPool::instance();
  const unsigned int width0 = pool.n_threads();
  pool.set_n_threads(threads);
  const std::size_t n = bytes_total / (3 * sizeof(double));
  dgflow::AlignedVector<double> a(n), b(n), c(n);
  pool.parallel_for(n, [&](const std::size_t begin, const std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
    {
      a[i] = 0;
      b[i] = 1. + double(i % 7);
      c[i] = 2. - double(i % 5);
    }
  });
  const double s = 0.5;
  double best = 1e300;
  for (unsigned int pass = 0; pass < 10; ++pass)
  {
    const auto t0 = Clock::now();
    pool.parallel_for(n, [&](const std::size_t begin, const std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        a[i] = b[i] + s * c[i];
    });
    best = std::min(best, seconds_since(t0));
  }
  pool.set_n_threads(width0);
  // the result must be used, or the passes could be elided
  if (a[n / 2] != b[n / 2] + s * c[n / 2])
    return 0;
  return double(3 * n * sizeof(double)) / best / 1e9;
}

} // namespace lungbench
