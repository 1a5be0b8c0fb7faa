// Process-wide backend selection state and the strict DGFLOW_BACKEND parse.
// The template backends themselves live in fem/kernel_backend_impl.h and are
// instantiated by the kernel dispatch translation units.

#include "fem/kernel_backend.h"

#include <atomic>

#include "common/env.h"

namespace dgflow
{
namespace
{
std::atomic<KernelBackendType> default_backend{KernelBackendType::batch};

constexpr const char *backend_names[3] = {"batch", "soa", "generic"};
} // namespace

const char *kernel_backend_name(const KernelBackendType type)
{
  return backend_names[static_cast<unsigned int>(type)];
}

KernelBackendType kernel_backend_from_env(const KernelBackendType fallback)
{
  const unsigned int parsed =
    env_choice("DGFLOW_BACKEND", static_cast<unsigned int>(fallback),
               backend_names, 3);
  return static_cast<KernelBackendType>(parsed);
}

void set_default_kernel_backend(const KernelBackendType type)
{
  default_backend.store(type, std::memory_order_relaxed);
}

KernelBackendType default_kernel_backend()
{
  return default_backend.load(std::memory_order_relaxed);
}

} // namespace dgflow
