// lungbench: the lung ledger benchmark driver.
//
//   lungbench --workload <lung_step|lung_poisson|lung_restart> --seed <n>
//             --seconds <s> --trace <0|1> [--tree-seed <n>] [--out <dir>]
//
// Prints progress and a host fingerprint, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one
// (whose spans are also written to <out>/<workload>-seed<n>-trace.json).
// Exits 1 when an output check fails and 2 on bad arguments.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "concurrency/thread_pool.h"

using namespace lungbench;

namespace
{
[[noreturn]] void usage(const char *why)
{
  std::fprintf(stderr,
               "lungbench: %s\nusage: lungbench --workload "
               "<lung_step|lung_poisson|lung_restart> [--seed n] "
               "[--seconds s] [--trace 0|1] [--tree-seed n] [--out dir]\n",
               why);
  std::exit(2);
}

Args parse(const int argc, char **argv)
{
  Args args;
  for (int i = 1; i < argc; ++i)
  {
    const std::string key = argv[i];
    if (i + 1 >= argc)
      usage(("missing value after " + key).c_str());
    const std::string value = argv[++i];
    char *end = nullptr;
    if (key == "--workload")
      args.workload = value;
    else if (key == "--seed" || key == "--tree-seed")
    {
      errno = 0;
      const unsigned long long s = std::strtoull(value.c_str(), &end, 10);
      const unsigned long long max =
        key == "--seed" ? UINT64_MAX : UINT32_MAX;
      if (*end != '\0' || value.empty() || value[0] == '-' || errno != 0 ||
          s > max)
        usage((key + " must be a non-negative integer in range").c_str());
      if (key == "--seed")
        args.seed = s;
      else
        args.tree_seed = static_cast<unsigned int>(s);
    }
    else if (key == "--seconds")
    {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 3600)
        usage("--seconds must be a number in (0, 3600]");
    }
    else if (key == "--trace")
    {
      if (value != "0" && value != "1")
        usage("--trace must be 0 or 1");
      args.trace = value == "1";
    }
    else if (key == "--out")
      args.out_dir = value;
    else
      usage(("unknown argument " + key).c_str());
  }
  if (args.workload.empty())
    usage("--workload is required");
  return args;
}
} // namespace

int main(int argc, char **argv)
{
  const Args args = parse(argc, argv);
  // no prof::EnvSession is installed, so the library's own profiling
  // collection stays off in every run
  dgflow::concurrency::ThreadPool::instance().set_n_threads(bench_threads);

  Tracer tracer(args.trace);
  Result result;
  std::size_t working_set = 0;
  try
  {
    if (args.workload == "lung_step")
      working_set = run_lung_step(args, tracer, result);
    else if (args.workload == "lung_poisson")
      working_set = run_lung_poisson(args, tracer, result);
    else if (args.workload == "lung_restart")
      working_set = run_lung_restart(args, tracer, result);
    else
      usage(("unknown workload " + args.workload).c_str());
  }
  catch (const std::exception &e)
  {
    std::fprintf(stderr, "lungbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  // measured after the peak RSS so the triad arrays do not count in it
  HostInfo host = host_info();
  host.stream_bytes = std::size_t(96) << 20;
  host.stream_gbs_1t = stream_triad_gbs(1, host.stream_bytes);
  host.stream_gbs_4t = stream_triad_gbs(bench_threads, host.stream_bytes);
  if (args.trace)
  {
    const bool has_failed_share =
      std::any_of(result.metrics.begin(), result.metrics.end(),
                  [](const Metric &m) { return m.name == "failed_share"; });
    if (!has_failed_share)
      result.add("failed_share",
                 double(result.failed) / double(std::max(1L, result.attempted)),
                 "ratio");
    result.add("host.stream_gbs_1t", host.stream_gbs_1t, "GB/s");
    result.add("host.stream_gbs_4t", host.stream_gbs_4t, "GB/s");
    // roofline fraction of every probed operator against the triad
    // bandwidth measured in this run
    const std::string suffix = ".gbs_computed";
    const std::vector<Metric> probed = result.metrics;
    for (const Metric &m : probed)
      if (m.name.size() > suffix.size() &&
          m.name.compare(m.name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
        result.add(m.name.substr(0, m.name.size() - suffix.size()) +
                     ".roof_frac",
                   m.value / host.stream_gbs_4t, "ratio");
  }

  std::printf(
    "fingerprint: {\"workload\": \"%s\", \"seed\": %llu, \"tree_seed\": "
    "%u, \"nproc\": %u, "
    "\"threads\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"flags\": "
    "\"%s\", \"dgflow_profile_compiled\": %s, \"kernel_backend\": \"%s\", "
    "\"l2\": \"%s\", \"l3\": \"%s\", \"working_set_mb\": %.1f, "
    "\"stream_array_mb\": %.0f, \"stream_gbs_1t\": %.2f, "
    "\"stream_gbs_4t\": %.2f, \"bandwidth_note\": \"computed bytes, "
    "cache-resident working set\"}\n",
    args.workload.c_str(), static_cast<unsigned long long>(args.seed),
    args.tree_seed, host.nproc, bench_threads,
    json_escape(host.cpu).c_str(), json_escape(host.compiler).c_str(),
    json_escape(host.flags).c_str(), host.profile_compiled ? "true" : "false",
    host.kernel_backend.c_str(), host.l2.c_str(), host.l3.c_str(),
    double(working_set) / 1048576., double(host.stream_bytes) / 3 / 1048576.,
    host.stream_gbs_1t, host.stream_gbs_4t);

  if (args.trace)
  {
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace.json";
    tracer.write(path);
    std::printf("spans written to %s\n", path.c_str());
  }

  for (const Metric &m : result.metrics)
    result.check(std::isfinite(m.value), m.name + " is not finite");
  for (const std::string &f : result.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              result.correct() ? "true" : "false", result.attempted,
              result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i)
  {
    const Metric &m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0., m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct() ? 0 : 1;
}
