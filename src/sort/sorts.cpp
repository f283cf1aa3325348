#include "sort/sorts.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace raa::sort {

using vec::Elem;
using vec::Mask;
using vec::Vpu;
using vec::Vreg;

namespace {

constexpr unsigned kKeyBits = 32;

/// In-register bitonic sort of a power-of-two block (size <= MVL), using
/// permutes + min/max + selects. Pads are the caller's responsibility.
void bitonic_in_register(Vpu& vpu, Vreg& v) {
  const std::size_t n = v.size();
  RAA_CHECK(std::has_single_bit(n));
  const Vreg iota = vpu.viota(n);
  for (std::size_t k = 2; k <= n; k <<= 1) {
    for (std::size_t j = k >> 1; j >= 1; j >>= 1) {
      const Vreg partner_idx = vpu.vxor_s(iota, j);
      const Vreg partner = vpu.vpermute(v, partner_idx);
      const Vreg mi = vpu.vmin(v, partner);
      const Vreg ma = vpu.vmax(v, partner);
      // Keep the min at position i when i is the lower index of the pair
      // XOR the descending region of this k-block.
      Mask keep_min(n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool lower = (i & j) == 0;
        const bool asc = (i & k) == 0;
        keep_min[i] = (lower == asc) ? 1 : 0;
      }
      // The mask is a constant pattern in real code (computed once per
      // (k, j) from iota); charge one ALU op for its formation.
      v = vpu.vselect(keep_min, mi, ma);
      vpu.scalar_work(0);
    }
  }
}

}  // namespace

SortStats vsr_sort(Vpu& vpu, std::vector<Elem>& data) {
  const std::size_t n = data.size();
  const unsigned mvl = vpu.mvl();
  constexpr unsigned kDigitBits = 8;  // non-replicated table: wide digit
  constexpr std::size_t kBuckets = 1u << kDigitBits;
  const std::uint64_t start = vpu.cycles();
  const std::uint64_t instr0 = vpu.instructions();

  std::vector<Elem> hist(kBuckets);
  std::vector<Elem> out(n);
  std::vector<Elem>* src = &data;
  std::vector<Elem>* dst = &out;

  for (unsigned shift = 0; shift < kKeyBits; shift += kDigitBits) {
    // --- counting phase ---
    std::fill(hist.begin(), hist.end(), 0);
    for (std::size_t i = 0; i < kBuckets; i += mvl)
      vpu.vstore(hist.data() + i,
                 vpu.vbroadcast(0, std::min<std::size_t>(mvl, kBuckets - i)));
    for (std::size_t base = 0; base < n; base += mvl) {
      const std::size_t len = std::min<std::size_t>(mvl, n - base);
      const Vreg keys = vpu.vload(src->data() + base, len);
      const Vreg digit = vpu.vand_s(vpu.vshr_s(keys, shift), kBuckets - 1);
      const Vreg counts = vpu.vgather(hist.data(), digit);
      // VPI resolves intra-vector duplicates; VLU selects the final writer
      // per distinct digit, so one masked scatter updates the whole table.
      const Vreg prior = vpu.vpi(digit);
      const Mask last = vpu.vlu(digit);
      const Vreg updated = vpu.vadd_s(vpu.vadd(counts, prior), 1);
      vpu.vscatter_masked(hist.data(), digit, updated, last);
    }
    vpu.sync();

    // Exclusive prefix sum over the bucket table (scalar loop; 256 small
    // dependent adds).
    Elem running = 0;
    for (auto& h : hist) {
      const Elem c = h;
      h = running;
      running += c;
    }
    vpu.scalar_work(2 * kBuckets);

    // --- permutation phase ---
    for (std::size_t base = 0; base < n; base += mvl) {
      const std::size_t len = std::min<std::size_t>(mvl, n - base);
      const Vreg keys = vpu.vload(src->data() + base, len);
      const Vreg digit = vpu.vand_s(vpu.vshr_s(keys, shift), kBuckets - 1);
      const Vreg offs = vpu.vgather(hist.data(), digit);
      const Vreg prior = vpu.vpi(digit);
      const Vreg pos = vpu.vadd(offs, prior);
      vpu.vscatter(dst->data(), pos, keys);
      const Mask last = vpu.vlu(digit);
      const Vreg bumped = vpu.vadd_s(pos, 1);
      vpu.vscatter_masked(hist.data(), digit, bumped, last);
    }
    vpu.sync();
    std::swap(src, dst);
  }
  if (src != &data) data = *src;
  return {vpu.cycles() - start, vpu.instructions() - instr0};
}

SortStats vector_radix_sort(Vpu& vpu, std::vector<Elem>& data) {
  const std::size_t n = data.size();
  const unsigned mvl = vpu.mvl();
  // Replicated bookkeeping: one counter row per vector slot forces a
  // narrow digit to keep the table affordable -> twice the passes.
  constexpr unsigned kDigitBits = 4;
  constexpr std::size_t kBuckets = 1u << kDigitBits;
  const unsigned shift_mvl = static_cast<unsigned>(std::countr_zero(
      static_cast<unsigned>(mvl)));
  RAA_CHECK(std::has_single_bit(static_cast<unsigned>(mvl)));
  const std::uint64_t start = vpu.cycles();
  const std::uint64_t instr0 = vpu.instructions();

  // Slot-major segments keep the sort stable (Zagha-Blelloch): slot s owns
  // elements [s*seg, (s+1)*seg).
  const std::size_t seg = (n + mvl - 1) / mvl;
  std::vector<Elem> table(kBuckets * mvl);
  std::vector<Elem> out(n);
  std::vector<Elem>* src = &data;
  std::vector<Elem>* dst = &out;

  for (unsigned shift = 0; shift < kKeyBits; shift += kDigitBits) {
    std::fill(table.begin(), table.end(), 0);
    for (std::size_t i = 0; i < table.size(); i += mvl)
      vpu.vstore(table.data() + i, vpu.vbroadcast(0, mvl));

    const Vreg slots = vpu.viota(mvl);
    // --- counting ---
    for (std::size_t t = 0; t < seg; ++t) {
      // Gather one element per slot (strided access across segments).
      Vreg idx(mvl);
      Mask valid(mvl);
      for (std::size_t s = 0; s < mvl; ++s) {
        const std::size_t i = s * seg + t;
        idx[s] = i < n ? i : 0;
        valid[s] = i < n ? 1 : 0;
      }
      // Index formation is a strided-address mode in hardware (free).
      const Vreg keys = vpu.vgather(src->data(), idx);
      const Vreg digit = vpu.vand_s(vpu.vshr_s(keys, shift), kBuckets - 1);
      const Vreg flat = vpu.vadd(vpu.vshl_s(digit, shift_mvl), slots);
      const Vreg cnt = vpu.vgather(table.data(), flat);
      vpu.vscatter_masked(table.data(), flat, vpu.vadd_s(cnt, 1), valid);
    }
    vpu.sync();

    // Exclusive scan in (digit, slot) order — the replicated table is
    // kBuckets*mvl entries, all walked serially.
    Elem running = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      for (std::size_t s = 0; s < mvl; ++s) {
        Elem& cell = table[d * mvl + s];
        const Elem c = cell;
        cell = running;
        running += c;
      }
    }
    vpu.scalar_work(2 * kBuckets * mvl);

    // --- permutation ---
    for (std::size_t t = 0; t < seg; ++t) {
      Vreg idx(mvl);
      Mask valid(mvl);
      for (std::size_t s = 0; s < mvl; ++s) {
        const std::size_t i = s * seg + t;
        idx[s] = i < n ? i : 0;
        valid[s] = i < n ? 1 : 0;
      }
      const Vreg keys = vpu.vgather(src->data(), idx);
      const Vreg digit = vpu.vand_s(vpu.vshr_s(keys, shift), kBuckets - 1);
      const Vreg flat = vpu.vadd(vpu.vshl_s(digit, shift_mvl), slots);
      const Vreg off = vpu.vgather(table.data(), flat);
      // Clamp invalid slots to a scratch position (element n-1 rewritten
      // by its own valid slot later is avoided by masking).
      vpu.vscatter_masked(dst->data(), off, keys, valid);
      vpu.vscatter_masked(table.data(), flat, vpu.vadd_s(off, 1), valid);
    }
    vpu.sync();
    std::swap(src, dst);
  }
  if (src != &data) data = *src;
  return {vpu.cycles() - start, vpu.instructions() - instr0};
}

SortStats vector_quicksort(Vpu& vpu, std::vector<Elem>& data) {
  const std::size_t n = data.size();
  const unsigned mvl = vpu.mvl();
  const std::uint64_t start = vpu.cycles();
  const std::uint64_t instr0 = vpu.instructions();

  std::vector<std::pair<std::size_t, std::size_t>> stack;  // [lo, hi)
  stack.emplace_back(0, n);
  std::vector<Elem> left, right;

  while (!stack.empty()) {
    auto [lo, hi] = stack.back();
    stack.pop_back();
    const std::size_t len = hi - lo;
    if (len <= 1) continue;

    if (len <= mvl) {
      // Base case: pad to a power of two and bitonic-sort in registers.
      const std::size_t padded = std::bit_ceil(len);
      Vreg v = vpu.vload(data.data() + lo, len);
      v.resize(padded, ~Elem{0});
      bitonic_in_register(vpu, v);
      v.resize(len);
      vpu.vstore(data.data() + lo, v);
      vpu.sync();
      continue;
    }

    // Median-of-three pivot (scalar).
    const Elem a = data[lo], b = data[lo + len / 2], c = data[hi - 1];
    const Elem pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
    vpu.scalar_work(12);

    left.clear();
    right.clear();
    for (std::size_t base = lo; base < hi; base += mvl) {
      const std::size_t l = std::min<std::size_t>(mvl, hi - base);
      const Vreg v = vpu.vload(data.data() + base, l);
      const Mask m = vpu.vcmp_lt_s(v, pivot);
      const Vreg lows = vpu.vcompress(v, m);
      const Vreg highs = vpu.vcompress(v, vpu.vmask_not(m));
      left.insert(left.end(), lows.begin(), lows.end());
      right.insert(right.end(), highs.begin(), highs.end());
    }
    // The compressed runs stream back to memory with unit stores.
    for (std::size_t i = 0; i < left.size(); i += mvl) {
      const std::size_t l = std::min<std::size_t>(mvl, left.size() - i);
      vpu.vstore(data.data() + lo + i, Vreg(left.begin() + static_cast<long>(i),
                                            left.begin() + static_cast<long>(i + l)));
    }
    for (std::size_t i = 0; i < right.size(); i += mvl) {
      const std::size_t l = std::min<std::size_t>(mvl, right.size() - i);
      vpu.vstore(data.data() + lo + left.size() + i,
                 Vreg(right.begin() + static_cast<long>(i),
                      right.begin() + static_cast<long>(i + l)));
    }
    vpu.sync();

    const std::size_t mid = lo + left.size();
    if (left.empty() || right.empty()) {
      // All-equal-to-pivot degenerate split: fall back to in-place scalar
      // handling of ties (count-equal partition).
      std::sort(data.begin() + static_cast<long>(lo),
                data.begin() + static_cast<long>(hi));
      vpu.scalar_work(len * 8);
      continue;
    }
    stack.emplace_back(lo, mid);
    stack.emplace_back(mid, hi);
  }
  return {vpu.cycles() - start, vpu.instructions() - instr0};
}

SortStats bitonic_sort(Vpu& vpu, std::vector<Elem>& data) {
  const std::size_t n0 = data.size();
  const unsigned mvl = vpu.mvl();
  const std::uint64_t start = vpu.cycles();
  const std::uint64_t instr0 = vpu.instructions();
  if (n0 <= 1) return {0, 0};
  // Pad to a power of two and to at least one full vector.
  const std::size_t n =
      std::max<std::size_t>(std::bit_ceil(n0), mvl);

  data.resize(n, ~Elem{0});  // pad ascending
  for (std::size_t k = 2; k <= n; k <<= 1) {
    for (std::size_t j = k >> 1; j >= 1; j >>= 1) {
      if (j >= mvl) {
        // Cross-block stage: both halves of every pair are contiguous
        // blocks -> unit-stride loads/stores.
        for (std::size_t base = 0; base < n; base += mvl) {
          if ((base & j) != 0) continue;  // handled with its partner block
          const std::size_t partner = base ^ j;
          const Vreg a = vpu.vload(data.data() + base, mvl);
          const Vreg b = vpu.vload(data.data() + partner, mvl);
          const Vreg mi = vpu.vmin(a, b);
          const Vreg ma = vpu.vmax(a, b);
          const bool asc = (base & k) == 0;
          vpu.vstore(data.data() + base, asc ? mi : ma);
          vpu.vstore(data.data() + partner, asc ? ma : mi);
        }
      } else {
        // In-block stage: permute within registers.
        const Vreg iota = vpu.viota(mvl);
        for (std::size_t base = 0; base < n; base += mvl) {
          Vreg v = vpu.vload(data.data() + base, mvl);
          const Vreg pidx = vpu.vxor_s(iota, j);
          const Vreg partner = vpu.vpermute(v, pidx);
          const Vreg mi = vpu.vmin(v, partner);
          const Vreg ma = vpu.vmax(v, partner);
          Mask keep_min(mvl);
          for (std::size_t i = 0; i < mvl; ++i) {
            const bool lower = (i & j) == 0;
            const bool asc = ((base + i) & k) == 0;
            keep_min[i] = (lower == asc) ? 1 : 0;
          }
          v = vpu.vselect(keep_min, mi, ma);
          vpu.vstore(data.data() + base, v);
        }
      }
      vpu.sync();
    }
  }
  data.resize(n0);
  return {vpu.cycles() - start, vpu.instructions() - instr0};
}

SortStats scalar_radix_sort(vec::ScalarCore& core,
                            std::vector<Elem>& data) {
  const std::size_t n = data.size();
  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kBuckets = 1u << kDigitBits;
  std::vector<Elem> hist(kBuckets);
  std::vector<Elem> out(n);
  std::vector<Elem>* src = &data;
  std::vector<Elem>* dst = &out;
  const std::uint64_t start = core.cycles();

  for (unsigned shift = 0; shift < kKeyBits; shift += kDigitBits) {
    std::fill(hist.begin(), hist.end(), 0);
    core.store(kBuckets);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t d = (*src)[i] >> shift & (kBuckets - 1);
      ++hist[d];
      // load key; extract digit (2 alu); dependent counter load+add+store;
      // loop branch.
      core.load();
      core.alu(2);
      core.load();
      core.alu();
      core.store();
      core.branch();
    }
    Elem running = 0;
    for (auto& h : hist) {
      const Elem c = h;
      h = running;
      running += c;
      core.load();
      core.alu();
      core.store();
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t d = (*src)[i] >> shift & (kBuckets - 1);
      (*dst)[hist[d]++] = (*src)[i];
      // load key; digit; offset load+increment+store; scattered write of
      // the element; loop branch.
      core.load();
      core.alu(2);
      core.load();
      core.alu();
      core.store();
      core.scattered();
      core.branch();
    }
    std::swap(src, dst);
  }
  if (src != &data) data = *src;
  return {core.cycles() - start, 0};
}

SortStats scalar_quicksort(vec::ScalarCore& core, std::vector<Elem>& data) {
  const std::uint64_t start = core.cycles();
  // Cost-instrumented introsort-style quicksort: ~(2 loads, 1 compare
  // branch, 0.5 swap) per element per level.
  const std::size_t n = data.size();
  std::sort(data.begin(), data.end());
  double levels = 0.0;
  for (std::size_t m = n; m > 16; m >>= 1) ++levels;
  const auto per_elem = static_cast<std::uint64_t>(levels);
  core.load(2 * n * per_elem);
  core.branch(n * per_elem);
  core.store(n * per_elem / 2);
  core.alu(2 * n * per_elem);
  return {core.cycles() - start, 0};
}

SortStats run_vector_sort(Algorithm algorithm, const vec::VpuConfig& config,
                          std::vector<Elem>& data) {
  vec::Vpu vpu{config};
  switch (algorithm) {
    case Algorithm::vsr: return vsr_sort(vpu, data);
    case Algorithm::vector_radix: return vector_radix_sort(vpu, data);
    case Algorithm::vector_quicksort: return vector_quicksort(vpu, data);
    case Algorithm::bitonic: return bitonic_sort(vpu, data);
  }
  RAA_CHECK(false);
  return {};
}

}  // namespace raa::sort
