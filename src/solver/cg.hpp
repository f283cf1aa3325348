#pragma once
/// \file cg.hpp
/// Conjugate-gradient solver with DUE fault injection and the §4 recovery
/// schemes (Figure 4):
///
///   * none          — the "Ideal" baseline (no fault injected);
///   * checkpoint    — periodic checkpoint of (x, r, p), rollback on DUE:
///                     "incurs a significant overhead when rolling back";
///   * lossy_restart — zero the lost block, recompute r = b - A x, restart
///                     the Krylov subspace (p := r): "slower convergence
///                     afterwards";
///   * feir          — exact Forward Error Interpolation Recovery: from the
///                     solver invariant r = b - A x, the lost block solves
///                     A_II x_I = b_I - r_I - A_IG x_G  (inner CG on the SPD
///                     principal submatrix). Convergence continues as if no
///                     fault happened;
///   * afeir         — asynchronous FEIR: the same algebra, but the inner
///                     solve runs as a task off the critical path, so most
///                     of its cost overlaps the normal workload.
///
/// The residual trace is computed in real arithmetic; the *time axis* is a
/// machine model (flops / (cores x flops-per-cycle x frequency)) because
/// Figure 4 plots wall-clock seconds on the authors' testbed — see
/// the substitution table in docs/ARCHITECTURE.md.

#include <cstddef>
#include <vector>

#include "common/enum_names.hpp"
#include "solver/csr.hpp"

namespace raa::solver {

/// Recovery scheme selector (see file comment).
enum class Recovery { none, checkpoint, lossy_restart, feir, afeir };

inline EnumNames<Recovery> enum_names(Recovery) {
  static constexpr EnumName<Recovery> kNames[] = {
      {"ideal", Recovery::none}, {"checkpoint", Recovery::checkpoint},
      {"lossy_restart", Recovery::lossy_restart}, {"feir", Recovery::feir},
      {"afeir", Recovery::afeir}};
  return {"recovery", kNames};
}
using raa::to_string;

/// Which vector the DUE hits.
enum class FaultTarget { x, r, p };

/// A Detected-Uncorrected-Error: at the start of iteration `iteration`, the
/// rows [block * n/blocks, (block+1) * n/blocks) of `target` are lost
/// (memory content unusable, loss detected by hardware ECC).
struct FaultSpec {
  bool enabled = false;
  std::size_t iteration = 0;
  FaultTarget target = FaultTarget::x;
  std::size_t block = 0;
  std::size_t num_blocks = 16;
};

/// Machine model for the simulated time axis.
struct TimeModel {
  unsigned cores = 8;
  double flops_per_cycle_per_core = 2.0;
  double freq_ghz = 2.0;
  /// Memory-bound ops (checkpoint copies) run at this fraction of peak.
  double copy_efficiency = 0.25;

  double seconds_for_flops(double flops) const {
    return flops / (cores * flops_per_cycle_per_core * freq_ghz * 1e9);
  }
};

struct CgOptions {
  std::size_t max_iterations = 10000;
  double rel_tolerance = 1e-8;
  Recovery recovery = Recovery::none;
  std::size_t checkpoint_interval = 1000;  ///< iterations
  FaultSpec fault{};
  TimeModel time{};
  double inner_tolerance = 1e-13;  ///< FEIR block-solve accuracy
};

/// One point of the convergence trace (Figure 4's series).
struct TracePoint {
  std::size_t iteration = 0;
  double time_s = 0.0;
  double rel_residual = 0.0;
};

struct CgResult {
  bool converged = false;
  std::size_t iterations = 0;     ///< total iterations executed (incl. redone)
  double time_s = 0.0;            ///< simulated wall-clock
  double recovery_time_s = 0.0;   ///< time attributed to the recovery itself
  std::size_t inner_iterations = 0;  ///< FEIR block-solve iterations
  std::vector<TracePoint> trace;
};

/// Solve A x = b from x = 0 with the configured resilience scheme.
CgResult solve_cg(const Csr& a, std::span<const double> b,
                  std::vector<double>& x, const CgOptions& options);

/// Plain inner CG on a (small) SPD system, used by FEIR; returns iterations.
std::size_t inner_cg(const Csr& a, std::span<const double> b,
                     std::span<double> x, double rel_tol,
                     std::size_t max_iters);

}  // namespace raa::solver
