#include "apps/miniapps.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "simcore/tdg_sim.hpp"

namespace raa::apps {

namespace {

/// Deterministic "pixel" of a synthetic frame.
double pixel(std::uint64_t seed, std::size_t frame, std::size_t k) {
  std::uint64_t s = seed ^ (frame * 0x9e3779b97f4a7c15ULL) ^ (k * 0x2545F4914F6CDD1DULL);
  const std::uint64_t v = splitmix64(s);
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

/// Weight of one particle against a frame (bodytrack's likelihood stand-in).
double particle_weight(const std::vector<double>& img, double prev_estimate,
                       std::size_t particle, std::size_t particles) {
  const double pos =
      prev_estimate +
      (static_cast<double>(particle) / static_cast<double>(particles) - 0.5);
  double w = 0.0;
  // Each particle samples a strided subset of the image.
  for (std::size_t k = particle % 16; k < img.size(); k += 16)
    w += img[k] * std::cos(pos + static_cast<double>(k) * 1e-3);
  return w * w + 1e-9;  // positive weights
}

void render_frame(const BodytrackParams& p, std::size_t frame,
                  std::vector<double>& img) {
  img.resize(p.pixels);
  for (std::size_t k = 0; k < p.pixels; ++k)
    img[k] = pixel(p.seed, frame, k);
}

double estimate_from_partials(const std::vector<double>& weights,
                              std::size_t particles) {
  double wsum = 0.0, psum = 0.0;
  for (std::size_t q = 0; q < weights.size(); ++q) {
    wsum += weights[q];
    psum += weights[q] * (static_cast<double>(q) /
                          static_cast<double>(particles));
  }
  return psum / wsum;
}

}  // namespace

Estimates bodytrack_serial(const BodytrackParams& p) {
  Estimates est;
  est.reserve(p.frames);
  std::vector<double> img;
  std::vector<double> weights(p.particles);
  double prev = 0.0;
  for (std::size_t f = 0; f < p.frames; ++f) {
    render_frame(p, f, img);  // the serial I/O / decode stage
    for (std::size_t q = 0; q < p.particles; ++q)
      weights[q] = particle_weight(img, prev, q, p.particles);
    prev = estimate_from_partials(weights, p.particles);
    est.push_back(prev);
  }
  return est;
}

Estimates bodytrack_parallel(const BodytrackParams& p, rt::Runtime& rt,
                             Style style) {
  RAA_CHECK(p.particles % p.chunks == 0);
  const std::size_t per_chunk = p.particles / p.chunks;

  // Frame-indexed storage so tasks of different frames can be in flight.
  std::vector<std::vector<double>> imgs(p.frames);
  std::vector<std::vector<double>> weights(
      p.frames, std::vector<double>(p.particles));
  Estimates est(p.frames, 0.0);
  int io_token = 0;  // serialises the I/O stage (single reader thread)

  for (std::size_t f = 0; f < p.frames; ++f) {
    // Serial I/O stage: a task in dataflow style (ordered by io_token), an
    // inline stage in forkjoin style (as the Pthreads original does it).
    if (style == Style::dataflow) {
      rt.spawn({rt::inout(io_token), rt::out(imgs[f])},
               [&p, f, &imgs] { render_frame(p, f, imgs[f]); },
               {.label = "io" + std::to_string(f)});
    } else {
      render_frame(p, f, imgs[f]);
    }

    for (std::size_t c = 0; c < p.chunks; ++c) {
      const std::size_t q_lo = c * per_chunk;
      std::vector<rt::Dep> deps{rt::in(imgs[f]),
                                rt::out(weights[f][q_lo])};
      if (f > 0) deps.push_back(rt::in(est[f - 1]));
      rt.spawn(std::move(deps),
               [&p, f, q_lo, per_chunk, &imgs, &weights, &est] {
                 const double prev = f > 0 ? est[f - 1] : 0.0;
                 for (std::size_t q = q_lo; q < q_lo + per_chunk; ++q)
                   weights[f][q] =
                       particle_weight(imgs[f], prev, q, p.particles);
               },
               {.label = "w" + std::to_string(f)});
    }

    // Estimate stage: in forkjoin style a barrier (taskwait) precedes it;
    // in dataflow style it is just another task depending on the weights.
    if (style == Style::forkjoin) {
      rt.taskwait();
      est[f] = estimate_from_partials(weights[f], p.particles);
    } else {
      std::vector<rt::Dep> deps{rt::out(est[f])};
      for (std::size_t c = 0; c < p.chunks; ++c)
        deps.push_back(rt::in(weights[f][c * per_chunk]));
      rt.spawn(std::move(deps),
               [&p, f, &weights, &est] {
                 est[f] = estimate_from_partials(weights[f], p.particles);
               },
               {.label = "est" + std::to_string(f),
                .criticality = rt::Criticality::critical});
    }
  }
  rt.taskwait();
  return est;
}

tdg::Graph bodytrack_tdg(std::size_t frames, std::size_t chunks,
                         Style style) {
  // Stage weights calibrated to PARSEC-like ratios: the serial decode is
  // ~8% of a frame's work at one core.
  const double io_cost = 3.0;
  const double chunk_cost = 35.2 / static_cast<double>(chunks);
  const double est_cost = 0.4;

  tdg::Graph g;
  tdg::NodeId prev_io = tdg::kNoNode;
  tdg::NodeId prev_est = tdg::kNoNode;
  for (std::size_t f = 0; f < frames; ++f) {
    const tdg::NodeId io =
        g.add_node(io_cost, "io" + std::to_string(f));
    if (prev_io != tdg::kNoNode) g.add_edge(prev_io, io);
    if (style == Style::forkjoin && prev_est != tdg::kNoNode)
      g.add_edge(prev_est, io);  // barrier: nothing overlaps frames
    const tdg::NodeId est =
        g.add_node(est_cost, "est" + std::to_string(f));
    for (std::size_t c = 0; c < chunks; ++c) {
      const tdg::NodeId w = g.add_node(chunk_cost, "w");
      g.add_edge(io, w);
      if (prev_est != tdg::kNoNode) g.add_edge(prev_est, w);
      g.add_edge(w, est);
    }
    prev_io = io;
    prev_est = est;
  }
  return g;
}

// --- facesim-like ----------------------------------------------------------

namespace {

double assembled_rhs(std::uint64_t seed, std::size_t frame, std::size_t k) {
  return pixel(seed * 31, frame, k) - 0.5;
}

double partition_force(const std::vector<double>& rhs,
                       const std::vector<double>& state, std::size_t lo,
                       std::size_t hi) {
  double f = 0.0;
  for (std::size_t k = lo; k < hi; ++k)
    f += rhs[k] * std::sin(state[k] + static_cast<double>(k) * 1e-4);
  return f;
}

}  // namespace

MeshState facesim_serial(const FacesimParams& p) {
  MeshState state(p.nodes, 0.0);
  std::vector<double> rhs(p.nodes);
  const std::size_t per_part = p.nodes / p.partitions;
  std::vector<double> forces(p.partitions);
  for (std::size_t f = 0; f < p.frames; ++f) {
    for (std::size_t k = 0; k < p.nodes; ++k)
      rhs[k] = assembled_rhs(p.seed, f, k);  // serial assembly
    for (std::size_t part = 0; part < p.partitions; ++part)
      forces[part] = partition_force(rhs, state, part * per_part,
                                     (part + 1) * per_part);
    double total = 0.0;
    for (const double fr : forces) total += fr;
    for (std::size_t k = 0; k < p.nodes; ++k)
      state[k] += 1e-3 * total + 1e-6 * rhs[k];  // serial integration
  }
  return state;
}

MeshState facesim_parallel(const FacesimParams& p, rt::Runtime& rt,
                           Style style) {
  RAA_CHECK(p.nodes % p.partitions == 0);
  const std::size_t per_part = p.nodes / p.partitions;
  MeshState state(p.nodes, 0.0);
  std::vector<std::vector<double>> rhs(p.frames,
                                       std::vector<double>(p.nodes));
  std::vector<std::vector<double>> forces(
      p.frames, std::vector<double>(p.partitions));
  int asm_token = 0;

  for (std::size_t f = 0; f < p.frames; ++f) {
    if (style == Style::dataflow) {
      rt.spawn({rt::inout(asm_token), rt::out(rhs[f])},
               [&p, f, &rhs] {
                 for (std::size_t k = 0; k < p.nodes; ++k)
                   rhs[f][k] = assembled_rhs(p.seed, f, k);
               },
               {.label = "asm" + std::to_string(f)});
    } else {
      for (std::size_t k = 0; k < p.nodes; ++k)
        rhs[f][k] = assembled_rhs(p.seed, f, k);
    }

    for (std::size_t part = 0; part < p.partitions; ++part) {
      std::vector<rt::Dep> deps{rt::in(rhs[f]), rt::in(state),
                                rt::out(forces[f][part])};
      rt.spawn(std::move(deps),
               [&rhs, &state, &forces, f, part, per_part] {
                 forces[f][part] =
                     partition_force(rhs[f], state, part * per_part,
                                     (part + 1) * per_part);
               },
               {.label = "force"});
    }

    if (style == Style::forkjoin) {
      rt.taskwait();
      double total = 0.0;
      for (const double fr : forces[f]) total += fr;
      for (std::size_t k = 0; k < p.nodes; ++k)
        state[k] += 1e-3 * total + 1e-6 * rhs[f][k];
    } else {
      std::vector<rt::Dep> deps{rt::inout(state), rt::in(rhs[f])};
      for (std::size_t part = 0; part < p.partitions; ++part)
        deps.push_back(rt::in(forces[f][part]));
      rt.spawn(std::move(deps),
               [&p, f, &rhs, &forces, &state] {
                 double total = 0.0;
                 for (const double fr : forces[f]) total += fr;
                 for (std::size_t k = 0; k < p.nodes; ++k)
                   state[k] += 1e-3 * total + 1e-6 * rhs[f][k];
               },
               {.label = "update" + std::to_string(f),
                .criticality = rt::Criticality::critical});
    }
  }
  rt.taskwait();
  return state;
}

tdg::Graph facesim_tdg(std::size_t frames, std::size_t partitions,
                       Style style) {
  // Assembly is a heavier serial stage than bodytrack's I/O (facesim
  // saturates lower in the paper: ~10x vs ~12x at 16 cores).
  const double asm_cost = 3.2;
  const double part_cost = 33.6 / static_cast<double>(partitions);
  const double upd_cost = 0.6;

  tdg::Graph g;
  tdg::NodeId prev_asm = tdg::kNoNode;
  tdg::NodeId prev_upd = tdg::kNoNode;
  for (std::size_t f = 0; f < frames; ++f) {
    const tdg::NodeId as = g.add_node(asm_cost, "asm" + std::to_string(f));
    if (prev_asm != tdg::kNoNode) g.add_edge(prev_asm, as);
    if (style == Style::forkjoin && prev_upd != tdg::kNoNode)
      g.add_edge(prev_upd, as);
    const tdg::NodeId upd = g.add_node(upd_cost, "upd" + std::to_string(f));
    for (std::size_t part = 0; part < partitions; ++part) {
      const tdg::NodeId fo = g.add_node(part_cost, "force");
      g.add_edge(as, fo);
      if (prev_upd != tdg::kNoNode) g.add_edge(prev_upd, fo);
      g.add_edge(fo, upd);
    }
    prev_asm = as;
    prev_upd = upd;
  }
  return g;
}

std::vector<double> scalability_curve(const tdg::Graph& graph,
                                      unsigned max_cores) {
  RAA_CHECK(max_cores >= 1);
  std::vector<double> speedup;
  speedup.reserve(max_cores);
  const auto base = sim::replay(
      graph, sim::MachineConfig{.cores = 1}, sim::priority_bottom_level());
  for (unsigned p = 1; p <= max_cores; ++p) {
    const auto r = sim::replay(graph, sim::MachineConfig{.cores = p},
                               sim::priority_bottom_level());
    speedup.push_back(base.makespan_ns / r.makespan_ns);
  }
  return speedup;
}

}  // namespace raa::apps
