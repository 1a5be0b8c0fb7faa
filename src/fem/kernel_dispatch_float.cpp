// Explicit instantiation of the fixed-size kernel dispatch tables and the
// kernel class for Number = float (the multigrid smoother precision).

#include "fem/kernel_backend_impl.h"
#include "fem/kernel_dispatch_impl.h"

namespace dgflow
{
template const CellKernels<float> *
lookup_cell_kernels<float>(const unsigned int, const unsigned int);
template const FaceKernels<float> *
lookup_face_kernels<float>(const unsigned int, const unsigned int);
template class KernelBackend<float>;
} // namespace dgflow
