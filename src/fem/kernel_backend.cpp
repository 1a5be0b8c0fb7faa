// Process-wide kernel path default. The KernelBackend members live in
// fem/kernel_backend_impl.h and are instantiated by the kernel dispatch
// translation units.

#include "fem/kernel_backend.h"

#include <atomic>

namespace dgflow
{
namespace
{
std::atomic<KernelBackendType> default_backend{KernelBackendType::batch};
} // namespace

const char *kernel_backend_name(const KernelBackendType type)
{
  return type == KernelBackendType::generic ? "generic" : "batch";
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
