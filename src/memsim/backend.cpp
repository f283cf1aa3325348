#include "memsim/backend.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace raa::mem {

std::unique_ptr<MemBackend> make_backend(const SystemConfig& config) {
  switch (config.memory.kind) {
    case MemBackendKind::flat:
      return std::make_unique<FlatBackend>(config.memory.flat);
    case MemBackendKind::banked:
      return std::make_unique<BankedBackend>(config.memory.banked,
                                             config.mem_controllers);
  }
  RAA_CHECK_MSG(false, "unknown memory backend kind");
  return nullptr;
}

// --- FlatBackend --------------------------------------------------------

void FlatBackend::enqueue(const LineReq& req) {
  stats_.energy_pj += p_.e_dram_line;
  if (req.kind == LineReq::Kind::read) {
    ++stats_.line_reads;
    completed(req, static_cast<double>(p_.lat_dram));
  } else {
    ++stats_.line_writes;
    completed(req, 0.0);  // writebacks are latency-hidden
  }
}

BurstTiming FlatBackend::finish_burst(unsigned total_lines,
                                      unsigned /*dram_lines*/) {
  // The pre-backend formula: the slowest source's access latency once,
  // then a flat per-line cadence over the whole chunk.
  return BurstTiming{
      static_cast<double>(p_.lat_dram),
      static_cast<double>(total_lines) * p_.dram_cycles_per_line};
}

// --- BankedBackend ------------------------------------------------------

BankedBackend::BankedBackend(const Params& params, unsigned mem_controllers)
    : p_(params), mem_controllers_(std::max(mem_controllers, 1u)) {
  // Degenerate parameters would divide by zero in the address decode.
  p_.channels = std::max(p_.channels, 1u);
  p_.banks_per_channel = std::max(p_.banks_per_channel, 1u);
  p_.row_bytes = std::max(p_.row_bytes, 1u);
  channels_.resize(std::size_t{mem_controllers_} * p_.channels);
  for (Channel& ch : channels_) ch.banks.resize(p_.banks_per_channel);
  begin_run();
}

void BankedBackend::begin_run() {
  stats_ = BackendStats{};
  seq_ = 0;
  pending_ = 0;
  burst_seen_ = false;
  for (Channel& ch : channels_) {
    ch.queue.clear();
    ch.bus_free = 0.0;
    ch.next_refresh = static_cast<double>(p_.refresh_interval);
    for (Bank& b : ch.banks) {
      b.open_row = kNoRow;
      b.busy_until = 0.0;
    }
  }
}

void BankedBackend::enqueue(const LineReq& req) {
  const std::uint64_t block = req.line / p_.row_bytes;
  Channel& ch = channels_[std::size_t{req.mc % mem_controllers_} *
                              p_.channels +
                          block % p_.channels];
  Pending pend;
  pend.req = req;
  pend.seq = seq_++;
  const std::uint64_t within = block / p_.channels;
  pend.row = within / p_.banks_per_channel;
  // XOR bank hash: fold the row bits into the bank index so a stride
  // that advances exactly banks_per_channel row-blocks (and would camp
  // on one bank, row-conflicting forever) rotates across banks instead.
  const std::uint64_t bank_bits =
      p_.mapping == BankMapping::xor_hash ? (within ^ pend.row) : within;
  pend.bank = static_cast<unsigned>(bank_bits % p_.banks_per_channel);
  ch.queue.push_back(pend);
  ++pending_;
}

void BankedBackend::tick() {
  // One command per channel per tick, channels in fixed index order —
  // independent controllers, deterministic service sequence.
  for (Channel& ch : channels_) {
    if (!ch.queue.empty()) service_one(ch);
  }
}

void BankedBackend::service_one(Channel& ch) {
  // FR-FCFS: the oldest request whose row is open in its bank wins; if no
  // request hits an open row, plain FCFS (oldest overall).
  std::size_t best = 0;
  bool best_hit = false;
  for (std::size_t i = 0; i < ch.queue.size(); ++i) {
    const Pending& cand = ch.queue[i];
    const bool hit = ch.banks[cand.bank].open_row == cand.row;
    const bool better =
        (hit && !best_hit) ||
        (hit == best_hit && cand.seq < ch.queue[best].seq);
    if (i == 0 || better) {
      best = i;
      best_hit = hit;
    }
  }
  const Pending pend = ch.queue[best];
  ch.queue.erase(ch.queue.begin() +
                 static_cast<std::ptrdiff_t>(best));
  --pending_;

  Bank& bank = ch.banks[pend.bank];

  // Periodic all-bank refresh: every elapsed interval up to this
  // request's earliest start closes all rows and blocks the banks.
  if (p_.refresh_interval > 0) {
    while (ch.next_refresh <=
           std::max(pend.req.issue, bank.busy_until)) {
      const double end = ch.next_refresh + p_.refresh_cycles;
      for (Bank& b : ch.banks) {
        b.open_row = kNoRow;
        b.busy_until = std::max(b.busy_until, end);
      }
      ++stats_.refreshes;
      stats_.energy_pj += p_.e_refresh;
      ch.next_refresh += static_cast<double>(p_.refresh_interval);
    }
  }

  const double ready = std::max(pend.req.issue, bank.busy_until);
  unsigned row_lat = p_.t_cas;
  if (bank.open_row == pend.row) {
    ++stats_.row_hits;
  } else {
    row_lat += p_.t_rcd;
    stats_.energy_pj += p_.e_activate;
    if (bank.open_row == kNoRow) {
      ++stats_.row_misses;
    } else {
      ++stats_.row_conflicts;
      row_lat += p_.t_rp;
    }
    bank.open_row = pend.row;
  }

  const double done =
      std::max(ready + row_lat, ch.bus_free) + p_.line_cycles;
  bank.busy_until = done;
  ch.bus_free = done;

  stats_.energy_pj += p_.e_line;
  if (pend.req.kind == LineReq::Kind::read) {
    ++stats_.line_reads;
    if (pend.req.burst) {
      if (!burst_seen_ || pend.req.issue < burst_issue_)
        burst_issue_ = pend.req.issue;
      if (!burst_seen_ || done < burst_first_done_)
        burst_first_done_ = done;
      if (!burst_seen_ || done > burst_last_done_)
        burst_last_done_ = done;
      burst_seen_ = true;
    }
  } else {
    ++stats_.line_writes;
  }
  completed(pend.req, done - pend.req.issue);
}

void BankedBackend::begin_burst() { burst_seen_ = false; }

BurstTiming BankedBackend::finish_burst(unsigned total_lines,
                                        unsigned dram_lines) {
  RAA_CHECK(pending_ == 0);
  BurstTiming bt;
  if (dram_lines > 0 && burst_seen_) {
    bt.service = burst_first_done_ - burst_issue_;
    bt.cadence = burst_last_done_ - burst_first_done_;
  }
  // Lines streamed from the home L2 bank ride the same burst at the DMA
  // engine's cadence.
  const unsigned l2_lines = total_lines - std::min(dram_lines, total_lines);
  bt.cadence += static_cast<double>(l2_lines) * p_.dma_cycles_per_line;
  return bt;
}

}  // namespace raa::mem
