#pragma once
/// \file miniapps.hpp
/// PARSEC-like mini-applications for the §5 programmability study
/// (Figure 5): a particle-filter tracker ("bodytrack-like") and an implicit
/// mesh solver ("facesim-like").
///
/// Each app exists in three equivalent implementations that must produce
/// bit-identical results:
///   * serial          — reference;
///   * forkjoin        — the PARSEC-original Pthreads structure: a serial
///                       I/O / assembly stage per frame, a parallel region
///                       with a barrier, a serial epilogue (taskwait plays
///                       the barrier);
///   * dataflow        — the OmpSs port: every stage is a task with data
///                       dependences, so the serial I/O of frame i+1
///                       overlaps the computation of frame i (the effect
///                       Figure 5 attributes the improved scalability to).
///
/// For the Figure 5 scalability curves the two parallelisation *structures*
/// are expressed as TDGs (costs calibrated to PARSEC-like stage ratios) and
/// replayed on simulated 1..16-core machines — this container has a single
/// hardware thread, so wall-clock scaling is unmeasurable here (see
/// the substitution table in docs/ARCHITECTURE.md).

#include <cstddef>
#include <vector>

#include "common/enum_names.hpp"
#include "runtime/graph.hpp"
#include "runtime/runtime.hpp"

namespace raa::apps {

/// Parallelisation structure of the original vs the OmpSs port.
enum class Style { forkjoin, dataflow };

inline EnumNames<Style> enum_names(Style) {
  static constexpr EnumName<Style> kNames[] = {
      {"forkjoin", Style::forkjoin}, {"dataflow", Style::dataflow}};
  return {"style", kNames};
}
using raa::to_string;

// --- bodytrack-like particle filter --------------------------------------

struct BodytrackParams {
  std::size_t frames = 20;
  std::size_t particles = 256;
  std::size_t chunks = 32;    ///< parallel tasks per frame
  std::size_t pixels = 2048;  ///< synthetic frame size
  std::uint64_t seed = 1;
};

/// Per-frame tracked estimate (the app's output).
using Estimates = std::vector<double>;

Estimates bodytrack_serial(const BodytrackParams& p);
Estimates bodytrack_parallel(const BodytrackParams& p, rt::Runtime& rt,
                             Style style);

/// TDG of one whole run with the given structure; costs are abstract stage
/// weights matching PARSEC-like ratios (I/O ~8% of a frame).
tdg::Graph bodytrack_tdg(std::size_t frames, std::size_t chunks, Style style);

// --- facesim-like implicit mesh solver -----------------------------------

struct FacesimParams {
  std::size_t frames = 16;
  std::size_t nodes = 4096;     ///< mesh nodes
  std::size_t partitions = 32;  ///< parallel force tasks per frame
  std::uint64_t seed = 2;
};

/// Final mesh state vector (the app's output).
using MeshState = std::vector<double>;

MeshState facesim_serial(const FacesimParams& p);
MeshState facesim_parallel(const FacesimParams& p, rt::Runtime& rt,
                           Style style);

tdg::Graph facesim_tdg(std::size_t frames, std::size_t partitions,
                       Style style);

// --- Figure 5 scalability harness -----------------------------------------

/// speedup[p-1] = makespan(1 core) / makespan(p cores) for p = 1..max_cores.
std::vector<double> scalability_curve(const tdg::Graph& graph,
                                      unsigned max_cores);

}  // namespace raa::apps
