#include "solver/cg.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace raa::solver {

std::size_t inner_cg(const Csr& a, std::span<const double> b,
                     std::span<double> x, double rel_tol,
                     std::size_t max_iters) {
  const std::size_t n = a.n;
  RAA_CHECK(b.size() == n && x.size() == n);
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> tmp(n);
  spmv(a, x, tmp);
  axpy(-1.0, tmp, r);
  std::vector<double> p = r;
  double rr = dot(r, r);
  const double b_norm = std::max(norm2(b), 1e-300);
  std::size_t it = 0;
  while (it < max_iters && std::sqrt(rr) / b_norm > rel_tol) {
    spmv(a, p, tmp);
    const double alpha = rr / dot(p, tmp);
    axpy(alpha, p, x);
    axpy(-alpha, tmp, r);
    const double rr_new = dot(r, r);
    xpby(r, rr_new / rr, p);
    rr = rr_new;
    ++it;
  }
  return it;
}

namespace {

struct Machine {
  const TimeModel& model;
  double now_s = 0.0;

  void charge_flops(double flops) { now_s += model.seconds_for_flops(flops); }
  void charge_copy(double doubles) {
    now_s += model.seconds_for_flops(doubles / model.copy_efficiency);
  }
};

}  // namespace

CgResult solve_cg(const Csr& a, std::span<const double> b,
                  std::vector<double>& x, const CgOptions& opt) {
  const std::size_t n = a.n;
  RAA_CHECK(b.size() == n);
  x.assign(n, 0.0);

  CgResult result;
  Machine clock{opt.time};
  const double b_norm = std::max(norm2(b), 1e-300);
  const double iter_flops =
      2.0 * static_cast<double>(a.nnz()) + 10.0 * static_cast<double>(n);

  std::vector<double> r(b.begin(), b.end());  // r = b - A*0
  std::vector<double> p = r;
  std::vector<double> tmp(n);
  double rr = dot(r, r);

  // Checkpoint state.
  std::vector<double> ck_x, ck_r, ck_p;
  double ck_rr = rr;
  std::size_t ck_iter = 0;
  const auto take_checkpoint = [&](std::size_t iter) {
    ck_x = x;
    ck_r = r;
    ck_p = p;
    ck_rr = rr;
    ck_iter = iter;
    clock.charge_copy(3.0 * static_cast<double>(n));
  };
  if (opt.recovery == Recovery::checkpoint) take_checkpoint(0);

  bool fault_pending = opt.fault.enabled && opt.recovery != Recovery::none;
  const std::size_t blocks = std::max<std::size_t>(1, opt.fault.num_blocks);
  const std::size_t blk = opt.fault.block % blocks;
  const std::size_t lo = blk * n / blocks;
  const std::size_t hi = (blk + 1) * n / blocks;

  std::size_t iter = 0;
  std::size_t logical_iter = 0;  // rewound by checkpoint rollback
  const auto record = [&] {
    result.trace.push_back(
        TracePoint{logical_iter, clock.now_s, std::sqrt(rr) / b_norm});
  };
  record();

  while (logical_iter < opt.max_iterations &&
         std::sqrt(rr) / b_norm > opt.rel_tolerance) {
    // --- DUE strikes at the start of the configured iteration ---
    if (fault_pending && logical_iter == opt.fault.iteration) {
      fault_pending = false;
      std::vector<double>* victim = nullptr;
      switch (opt.fault.target) {
        case FaultTarget::x: victim = &x; break;
        case FaultTarget::r: victim = &r; break;
        case FaultTarget::p: victim = &p; break;
      }
      // The block's contents are gone (hardware reported a DUE).
      std::fill(victim->begin() + static_cast<long>(lo),
                victim->begin() + static_cast<long>(hi), 0.0);
      const double t_fault = clock.now_s;

      switch (opt.recovery) {
        case Recovery::none:
          break;
        case Recovery::checkpoint: {
          // Roll back to the last checkpoint: restore everything, lose the
          // iterations since.
          x = ck_x;
          r = ck_r;
          p = ck_p;
          rr = ck_rr;
          logical_iter = ck_iter;
          clock.charge_copy(3.0 * static_cast<double>(n));
          record();
          break;
        }
        case Recovery::lossy_restart: {
          // Approximate the lost block (zeros), then restart CG from the
          // surviving iterate: r = b - A x, p = r. The Krylov history is
          // gone, so convergence continues at a shallower slope.
          std::copy(b.begin(), b.end(), r.begin());
          spmv(a, x, tmp);
          axpy(-1.0, tmp, r);
          p = r;
          rr = dot(r, r);
          clock.charge_flops(2.0 * static_cast<double>(a.nnz()) +
                             4.0 * static_cast<double>(n));
          record();
          break;
        }
        case Recovery::feir:
        case Recovery::afeir: {
          // Exact interpolation from the solver invariant r = b - A x.
          // For a lost x block:  A_II x_I = b_I - r_I - A_IG x_G, where the
          // right-hand side is computable because r survived. Lost r is
          // recomputed exactly; lost p restarts that block's direction.
          std::size_t inner_it = 0;
          double rec_flops = 0.0;
          if (opt.fault.target == FaultTarget::x) {
            const Csr a_ii = principal_submatrix(a, lo, hi);
            // rhs = b_I - r_I - (A * x_with_zero_block)_I.
            spmv_rows(a, x, tmp, lo, hi);
            std::vector<double> rhs(hi - lo);
            for (std::size_t i = lo; i < hi; ++i)
              rhs[i - lo] = b[i] - r[i] - tmp[i];
            std::vector<double> xi(hi - lo, 0.0);
            inner_it = inner_cg(a_ii, rhs, xi, opt.inner_tolerance,
                                10 * a_ii.n);
            std::copy(xi.begin(), xi.end(),
                      x.begin() + static_cast<long>(lo));
            rec_flops = 2.0 * static_cast<double>(a_ii.nnz() + 5 * a_ii.n) *
                        static_cast<double>(inner_it);
          } else if (opt.fault.target == FaultTarget::r) {
            // r_I = b_I - (A x)_I, exact by definition.
            spmv_rows(a, x, tmp, lo, hi);
            for (std::size_t i = lo; i < hi; ++i) r[i] = b[i] - tmp[i];
            rr = dot(r, r);
            rec_flops = 2.0 * static_cast<double>(a.nnz()) /
                        static_cast<double>(blocks);
          } else {
            // p_I: restart the direction for that block only.
            for (std::size_t i = lo; i < hi; ++i) p[i] = r[i];
            rec_flops = static_cast<double>(hi - lo);
          }
          result.inner_iterations = inner_it;

          const double rec_s = opt.time.seconds_for_flops(rec_flops);
          if (opt.recovery == Recovery::feir) {
            // Synchronous: the solver stalls for the whole recovery.
            clock.now_s += rec_s;
          } else {
            // Asynchronous: the interpolation runs as a task off the
            // critical path on one core while the other cores keep
            // executing the workload, so only ~1/cores of the recovery
            // reaches the critical path.
            clock.now_s += rec_s / opt.time.cores;
          }
          record();
          break;
        }
      }
      result.recovery_time_s += clock.now_s - t_fault;
      continue;  // re-test convergence before the next iteration
    }

    // --- one CG iteration ---
    spmv(a, p, tmp);
    const double alpha = rr / dot(p, tmp);
    axpy(alpha, p, x);
    axpy(-alpha, tmp, r);
    const double rr_new = dot(r, r);
    xpby(r, rr_new / rr, p);
    rr = rr_new;
    ++iter;
    ++logical_iter;
    clock.charge_flops(iter_flops);

    if (opt.recovery == Recovery::checkpoint &&
        logical_iter % opt.checkpoint_interval == 0)
      take_checkpoint(logical_iter);

    record();
  }

  result.converged = std::sqrt(rr) / b_norm <= opt.rel_tolerance;
  result.iterations = iter;
  result.time_s = clock.now_s;
  return result;
}

}  // namespace raa::solver
