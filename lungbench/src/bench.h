#pragma once

// Shared pieces of the lung ledger benchmark: command-line arguments, the
// result every workload fills in, sample statistics, the in-memory span
// recorder used by traced runs, and the host fingerprint.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lungbench
{
/// Threads every workload runs on (the host's core count).
constexpr unsigned int bench_threads = 4;

struct Args
{
  std::string workload;
  /// workload seed: generates each workload's inputs (see README.md)
  std::uint64_t seed = 0;
  /// AirwayTreeParameters::seed of every lung built (0 = the default tree)
  unsigned int tree_seed = 0;
  double seconds = 10;   ///< measuring time of the timed loop
  bool trace = false;    ///< traced run: per-layer metrics instead of e2e
  std::string out_dir = ".bench_build/out";
};

struct Metric
{
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back. An operation that fails (an unconverged
/// step or solve, a restore that finds nothing) counts in `failed` and is
/// never a timing sample; a failed output check clears `correct`.
struct Result
{
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string &what);
  void add(const std::string &name, double value, const std::string &unit);
  bool correct() const { return check_failures.empty(); }
};

double median(std::vector<double> v);
/// Nearest-rank percentile @p q in [0, 1].
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);

using Clock = std::chrono::steady_clock;

inline double seconds_since(const Clock::time_point t0)
{
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Records spans (name, parent, start, end) in memory while enabled; a
/// disabled tracer records nothing. Span names are "<layer>.<call>", with the
/// layer named after the src/ module whose public function the benchmark
/// called. A layer's self time is the span's duration minus the part its
/// child spans cover.
class Tracer
{
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  class Span
  {
  public:
    Span(Tracer *tracer, const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    /// Seconds since the span opened (also valid when tracing is off).
    double seconds() const { return seconds_since(start_); }

  private:
    Tracer *tracer_;
    std::int64_t id_ = -1;
    Clock::time_point start_;
  };

  /// Opens a span; it closes when the returned object is destroyed.
  Span span(const char *name) { return Span(enabled_ ? this : nullptr, name); }

  /// Durations of all closed spans named @p name, in seconds.
  std::vector<double> durations(const std::string &name) const;
  /// Total self time per layer (the span name up to its first '.').
  std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;

  /// Self time per layer of the spans at or below spans named @p root,
  /// divided by the number of such roots (one root = one workload
  /// operation).
  std::vector<std::pair<std::string, double>>
  self_seconds_per_root(const std::string &root) const;

  /// Writes all spans and the per-layer self times as JSON.
  void write(const std::string &path) const;

private:
  struct Record
  {
    std::string name;
    std::int64_t parent;
    Clock::time_point start, end;
  };
  double self_of(std::size_t i) const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<std::int64_t> open_;
};

/// Host facts recorded next to every result.
struct HostInfo
{
  unsigned int nproc = 0;
  std::string compiler, flags, kernel_backend, cpu;
  bool profile_compiled = false;
  std::string l2, l3;
  double stream_gbs_1t = 0, stream_gbs_4t = 0;
  std::size_t stream_bytes = 0; ///< bytes of the three triad arrays
};

/// Fills everything but the stream figures.
HostInfo host_info();
/// Stream triad a = b + s c over three arrays of @p bytes_total / 3 each,
/// best of several passes, in GB/s on @p threads threads.
double stream_triad_gbs(unsigned int threads, std::size_t bytes_total);

std::string json_escape(const std::string &s);

// The three workloads. Each builds its lungs from args.tree_seed, draws its
// other inputs from args.seed, measures for
// args.seconds, checks its outputs into `result`, and appends the
// end-to-end metrics (untraced) or the per-layer metrics (traced). It also
// returns the working set (vectors + stored metric bytes) it ran on.
std::size_t run_lung_step(const Args &args, Tracer &tracer, Result &result);
std::size_t run_lung_poisson(const Args &args, Tracer &tracer,
                             Result &result);
std::size_t run_lung_restart(const Args &args, Tracer &tracer,
                             Result &result);

} // namespace lungbench
