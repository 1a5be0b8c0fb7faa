#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <numeric>

#include "bench.h"

namespace lungbench
{
void Result::check(const bool ok, const std::string &what)
{
  if (!ok)
    check_failures.push_back(what);
}

void Result::add(const std::string &name, const double value,
                 const std::string &unit)
{
  metrics.push_back({name, value, unit});
}

double median(std::vector<double> v)
{
  if (v.empty())
    return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, const double q)
{
  if (v.empty())
    return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double> &v)
{
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.) / double(v.size());
}

double peak_rss_mb()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.; // ru_maxrss is in KiB on Linux
}

Tracer::Span::Span(Tracer *tracer, const char *name)
  : tracer_(tracer), start_(Clock::now())
{
  if (tracer_ == nullptr)
    return;
  const std::int64_t parent =
    tracer_->open_.empty() ? -1 : tracer_->open_.back();
  id_ = std::int64_t(tracer_->spans_.size());
  tracer_->spans_.push_back({name, parent, start_, start_});
  tracer_->open_.push_back(id_);
}

Tracer::Span::~Span()
{
  if (tracer_ == nullptr)
    return;
  tracer_->spans_[std::size_t(id_)].end = Clock::now();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string &name) const
{
  std::vector<double> out;
  for (const Record &r : spans_)
    if (r.name == name)
      out.push_back(std::chrono::duration<double>(r.end - r.start).count());
  return out;
}

double Tracer::self_of(const std::size_t i) const
{
  // children are recorded after their parent, so one forward scan finds them
  double self = std::chrono::duration<double>(spans_[i].end - spans_[i].start)
                  .count();
  for (std::size_t j = i + 1; j < spans_.size(); ++j)
    if (spans_[j].parent == std::int64_t(i))
      self -= std::chrono::duration<double>(spans_[j].end - spans_[j].start)
                .count();
  return self;
}

std::vector<std::pair<std::string, double>>
Tracer::self_seconds_by_layer() const
{
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
  {
    const std::string &n = spans_[i].name;
    by_layer[n.substr(0, n.find('.'))] += self_of(i);
  }
  return {by_layer.begin(), by_layer.end()};
}

std::vector<std::pair<std::string, double>>
Tracer::self_seconds_per_root(const std::string &root) const
{
  std::map<std::string, double> by_layer;
  std::size_t n_roots = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
  {
    n_roots += spans_[i].name == root;
    for (std::int64_t a = std::int64_t(i); a >= 0;
         a = spans_[std::size_t(a)].parent)
      if (spans_[std::size_t(a)].name == root)
      {
        const std::string &n = spans_[i].name;
        by_layer[n.substr(0, n.find('.'))] += self_of(i);
        break;
      }
  }
  for (auto &[layer, s] : by_layer)
    s /= double(n_roots);
  return {by_layer.begin(), by_layer.end()};
}

void Tracer::write(const std::string &path) const
{
  std::ofstream out(path);
  const auto us = [this](const Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\n  \"self_seconds_by_layer\": {";
  const auto layers = self_seconds_by_layer();
  for (std::size_t i = 0; i < layers.size(); ++i)
    out << (i ? ", " : "") << '"' << layers[i].first
        << "\": " << layers[i].second;
  out << "},\n  \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i)
  {
    const Record &r = spans_[i];
    out << "    {\"id\": " << i << ", \"name\": \"" << json_escape(r.name)
        << "\", \"parent\": " << r.parent << ", \"start_us\": " << us(r.start)
        << ", \"end_us\": " << us(r.end) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

std::string json_escape(const std::string &s)
{
  std::string out;
  for (const char c : s)
  {
    if (c == '"' || c == '\\')
      out += '\\';
    if (static_cast<unsigned char>(c) < 0x20)
      continue;
    out += c;
  }
  return out;
}

} // namespace lungbench
