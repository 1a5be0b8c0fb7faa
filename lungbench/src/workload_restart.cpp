// lung_restart: the cold-resume path after a failure. Each cycle constructs
// the g = 3 LungApplication (a set-up sample), then times the operation:
// enable checkpointing on a generation ring prepared before timing, restore
// the newest generation, take one step and publish one durable generation
// (AsyncCheckpointer with async = false, so the fsyncs are in the timed path
// and no thread is started). Set-up (mesh, MatrixFree::reinit,
// multigrid/AMG, diagonals) dominates the cycle; checkpoint writes sit
// beside restore reads.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "lung.h"
#include "resilience/ckpt_io.h"

namespace lungbench
{
namespace
{
using dgflow::LungApplication;
namespace res = dgflow::resilience;

// Steps from rest before the ring's generation is taken; the workload seed
// adds 0-15 steps, so it picks the state that is checkpointed and restored.
constexpr unsigned int prepare_steps = 20, prepare_seed_range = 16;
// Nominal recovery cycles per measured second: the cycle count is fixed by
// --seconds.
constexpr double cycles_per_second = 2.0;

res::AsyncCheckpointer::Options sync_ring()
{
  res::AsyncCheckpointer::Options o;
  o.async = false;
  o.durable = true;
  o.keep_generations = 2;
  return o;
}

/// A schedule under which advance() never checkpoints by itself: every
/// publish in this workload is the benchmark's own.
res::CheckpointScheduler::Options never()
{
  res::CheckpointScheduler::Options o;
  o.default_interval_seconds = o.max_interval_seconds = 1e9;
  return o;
}

/// The coupled-state image LungApplication checkpoints: solver state,
/// ventilation state and the outlet fluxes of the last step.
std::vector<res::AsyncCheckpointer::NamedImage> encode(LungApplication &app)
{
  res::CheckpointWriter writer("app.ckpt");
  app.solver().serialize(writer);
  app.ventilation().save_state(writer);
  const auto &outlets = app.lung_mesh().outlet_ids;
  writer.write_u64(outlets.size());
  for (const auto id : outlets)
    writer.write_double(app.solver().boundary_flux(id));
  std::vector<res::AsyncCheckpointer::NamedImage> images;
  images.push_back({"app.ckpt", writer.encode()});
  return images;
}

} // namespace

std::size_t run_lung_restart(const Args &args, Tracer &tracer, Result &result)
{
  const auto prm = lung_parameters(args.tree_seed);
  const std::string root =
    args.out_dir + "/lung_restart-seed" + std::to_string(args.seed);
  std::filesystem::remove_all(root);
  const std::string ring = root + "/ring", published = root + "/published";

  // ---- prepare the ring and the uninterrupted reference (untimed) ----
  dgflow::Vector<double> u0, p0, u1, p1;
  std::size_t working_set = 0;
  {
    LungApplication app(prm);
    for (unsigned int i = 0;
         i < prepare_steps + unsigned(args.seed % prepare_seed_range);
         ++i)
      result.check(step_converged(app.advance()),
                   "lung_restart: a preparation step failed");
    app.enable_checkpointing(ring, sync_ring(), never());
    app.checkpointer()->submit(encode(app));
    result.check(app.checkpointer()->status().published == 1,
                 "lung_restart: the ring generation was not published");
    u0 = app.solver().velocity();
    p0 = app.solver().pressure();
    result.check(step_converged(app.advance()),
                 "lung_restart: the reference step failed");
    u1 = app.solver().velocity();
    p1 = app.solver().pressure();
    working_set = app.solver().matrix_free().metric_bytes_stored() +
                  8 * (16 * u0.size() + 8 * p0.size());
  }
  res::AsyncCheckpointer publisher(published, sync_ring());
  const auto io0 = res::CkptIo::instance().stats();

  const unsigned int n_cycles =
    std::max(2u, unsigned(args.seconds * cycles_per_second + 0.5));
  std::vector<double> setup, cycles, traced, untraced, image_bytes;
  std::unique_ptr<LungApplication> app;
  unsigned long long publishes = 0;
  for (unsigned int c = 0; c < n_cycles; ++c)
  {
    app.reset(); // tear-down of the previous cycle is not timed
    // traced runs alternate spanned and bare cycles for the overhead
    Tracer bare(false);
    Tracer &t = args.trace && c % 2 == 0 ? tracer : bare;
    {
      auto s = t.span("lung.construct");
      app = std::make_unique<LungApplication>(prm);
      setup.push_back(s.seconds());
    }
    // the operation: resume (enable, restore, first step) and re-protect
    // (encode, durable publish)
    const auto t0 = Clock::now();
    auto cycle = t.span("bench.cycle");
    bool restored;
    {
      auto s = t.span("resilience.restore");
      app->enable_checkpointing(ring, sync_ring(), never());
      restored = app->restore_latest();
    }
    ++result.attempted;
    if (!restored)
    {
      ++result.failed;
      continue;
    }
    result.check(bitwise_equal(app->solver().velocity(), u0) &&
                   bitwise_equal(app->solver().pressure(), p0),
                 "lung_restart: restored state differs from the ring image");
    LungApplication::Solver::StepInfo info;
    {
      auto s = t.span("incns.advance");
      info = app->advance();
    }
    ++result.attempted;
    if (!step_converged(info))
    {
      ++result.failed;
      continue;
    }
    result.check(bitwise_equal(app->solver().velocity(), u1) &&
                   bitwise_equal(app->solver().pressure(), p1),
                 "lung_restart: first step after restore differs from the "
                 "uninterrupted run");
    std::vector<res::AsyncCheckpointer::NamedImage> images;
    {
      auto s = t.span("resilience.encode");
      images = encode(*app);
    }
    image_bytes.push_back(double(images.front().image.size()));
    {
      auto s = t.span("resilience.publish");
      publisher.submit(std::move(images));
    }
    ++result.attempted;
    ++publishes;
    if (publisher.status().published != publishes)
    {
      ++result.failed;
      continue;
    }
    const double wall = seconds_since(t0);
    cycles.push_back(wall);
    (&t == &tracer ? traced : untraced).push_back(wall);
  }
  result.check(!cycles.empty(), "lung_restart: no recovery cycle completed");
  std::printf("lung_restart: tree seed %u, %zu cycles, resume + publish "
              "p50 %.3f s, construct p50 %.3f s, image %.1f MB\n",
              args.tree_seed, cycles.size(), median(cycles), median(setup),
              median(image_bytes) / 1e6);

  if (!args.trace)
  {
    result.add("op_s_p50", median(cycles), "s");
    result.add("setup_s", median(setup), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    app.reset();
    std::filesystem::remove_all(root);
    return working_set;
  }

  // ---- traced run: per-layer metrics ----
  const auto io1 = res::CkptIo::instance().stats();
  const auto med = [&](const char *name) {
    return median(tracer.durations(name));
  };
  result.add("resilience.encode_s", med("resilience.encode"), "s");
  result.add("resilience.ckpt_bytes", median(image_bytes), "B");
  result.add("resilience.publish_s", med("resilience.publish"), "s");
  result.add("resilience.restore_s", med("resilience.restore"), "s");
  result.add("resilience.fsyncs_per_ckpt",
             double(io1.file_fsyncs - io0.file_fsyncs + io1.dir_fsyncs -
                    io0.dir_fsyncs) /
               double(std::max(1ull, publishes)),
             "count");
  result.add("incns.advance_s", med("incns.advance"), "s");
  result.add("trace.overhead.op_s_p50", median(traced) - median(untraced),
             "s");
  add_self_times(tracer, result, "bench.cycle");
  probe_setup_layers(tracer, result, *app, prm);
  app.reset();
  std::filesystem::remove_all(root);
  return working_set;
}

} // namespace lungbench
