#pragma once

// Compile-time contracts of the solver layer. The Krylov solvers and the
// multigrid stack used to duck-type their collaborators (any type with a
// vmult compiled, and a mismatch surfaced as a template error three layers
// deep); these concepts state the requirements at the signature so misuse
// fails at the call site.

#include <concepts>

namespace dgflow
{
/// A preconditioner applicable to VectorType: z = P * r through
/// vmult(dst, src). Nothing is said about the preconditioner's *internal*
/// vector or scalar types — a float multigrid V-cycle preconditioning a
/// double CG satisfies PreconditionerFor<., Vector<double>> as long as it
/// converts at its boundary.
template <typename P, typename VectorType>
concept PreconditionerFor =
  requires(P &p, VectorType &dst, const VectorType &src) {
    p.vmult(dst, src);
  };

/// The plain homogeneous action every solver needs.
template <typename Op, typename VectorType>
concept OperatorFor = requires(const Op &op, VectorType &dst,
                               const VectorType &src) { op.vmult(dst, src); };

} // namespace dgflow
