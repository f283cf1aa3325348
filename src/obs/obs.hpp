#pragma once
/// \file obs.hpp
/// Unified tracing layer: lock-free per-thread bounded event rings with
/// dual timestamps (simulated cycles from memsim's commit clock AND host
/// steady-clock nanoseconds), drained post-run into a raa::obs::Trace.
///
/// Design contract (see docs/OBSERVABILITY.md):
///  - The hot path is one relaxed-atomic bool load when tracing is off,
///    and one TLS lookup + five relaxed word stores + one release store
///    when it is on. No locks, no allocation after a thread's first event.
///  - Compile-time gate: building with -DRAA_OBS_DISABLED (CMake option
///    RAA_OBS=OFF) turns the RAA_OBS_*_EVENT macros into no-ops. The
///    library symbols themselves are identical in both configurations so
///    mixed objects never violate the ODR; a TU compiled with the gate
///    off simply never emits.
///  - Determinism: every simulated-clock event is emitted by the serial
///    protocol commit loop (ROADMAP "parallelism contract"), so the
///    commit thread's ring holds them in an identical sequence on every
///    run of a scenario. The sim-clock exporter (trace_export.hpp)
///    filters to sim-stamped events and preserves ring order, which makes
///    the exported bytes reproducible (TraceDeterminism suite).
///  - Ring overflow overwrites the oldest records and bumps a drop count;
///    a drain that races an in-flight *host-domain* writer on a wrapped
///    ring can decode one torn logical record (the words are individually
///    atomic, so this is memory-safe and TSan-clean, merely stale).
///    Sim-domain drains happen after the run on the same thread: exact.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifdef RAA_OBS_DISABLED
#define RAA_OBS_ENABLED 0
#else
#define RAA_OBS_ENABLED 1
#endif

namespace raa::obs {

/// Event category — one per instrumented subsystem.
enum class Cat : std::uint8_t { memsim = 0, exec, rt, fleet, app };

/// Interned event names. Adding one: append here AND to kNameStrings in
/// obs.cpp (static_assert pins the sizes together).
enum class Name : std::uint16_t {
  epoch = 0,       ///< memsim run span (B/E), sim clock
  dram_enqueue,    ///< line request handed to the DRAM backend (instant)
  dram_complete,   ///< backend completion; flags carry the row outcome
  dma_chunk,       ///< SPM DMA chunk mapped (complete; a0 = latency bits)
  task_spawn,      ///< runtime task created (instant)
  task_run,        ///< task body execution (complete; a0 = host ns)
  steal_attempt,   ///< executor steal sweep started (instant)
  steal_success,   ///< executor stole an item (instant)
  worker_park,     ///< worker blocked in the Notifier (B/E)
  job,             ///< fleet job span, first submit -> finalize (B/E)
  job_retry,       ///< fleet retry scheduled (instant)
  job_timeout,     ///< fleet watchdog cancelled a job (instant)
  mark             ///< free-form application marker
};

enum class Phase : std::uint8_t { instant = 0, begin, end, complete };

/// Flag bits (8 available). Bit 0: the sim timestamp is valid. Bits 1-2:
/// DRAM row outcome for dram_complete (0 none, 1 hit, 2 miss, 3 conflict).
inline constexpr std::uint8_t kFlagHasSim = 0x01;
inline constexpr unsigned kRowShift = 1;
inline constexpr std::uint8_t kRowNone = 0;
inline constexpr std::uint8_t kRowHit = 1;
inline constexpr std::uint8_t kRowMiss = 2;
inline constexpr std::uint8_t kRowConflict = 3;

/// A decoded event, produced by stop(). The binary ring record is five
/// 64-bit words: [sim bits, host ns, packed ids, a0, a1].
struct Event {
  double sim_ts = 0.0;        ///< simulated cycles; valid iff kFlagHasSim
  std::uint64_t host_ns = 0;  ///< steady-clock ns since session start
  Name name = Name::mark;
  Cat cat = Cat::app;
  Phase phase = Phase::instant;
  std::uint8_t flags = 0;
  std::uint64_t a0 = 0;  ///< payload word 0 (meaning depends on name)
  std::uint64_t a1 = 0;  ///< payload word 1
  std::uint32_t slot = 0;  ///< ring slot == per-session thread index
};

/// Drained session: events grouped by ring (ring order within a slot is
/// emission order), thread names indexed by slot, and the number of
/// records lost to ring wrap-around.
struct Trace {
  std::vector<Event> events;
  std::vector<std::string> threads;
  std::uint64_t dropped = 0;
};

struct SessionOptions {
  /// Events per thread ring; rounded up to a power of two, minimum 64.
  std::size_t ring_capacity = std::size_t{1} << 16;
};

namespace detail {
/// Runtime gate. Read relaxed on every emit attempt; written by
/// start()/stop() under the registry mutex.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True while a tracing session is active. The macro fast path.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Record one event on the calling thread's ring. No-op unless a session
/// is active. `flags` should include kFlagHasSim when `sim_ts` is real.
void emit(Cat cat, Name name, Phase phase, std::uint8_t flags, double sim_ts,
          std::uint64_t a0, std::uint64_t a1);

inline void emit_sim(Cat cat, Name name, Phase phase, double sim_ts,
                     std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                     std::uint8_t extra_flags = 0) {
  emit(cat, name, phase, static_cast<std::uint8_t>(kFlagHasSim | extra_flags),
       sim_ts, a0, a1);
}

inline void emit_host(Cat cat, Name name, Phase phase, std::uint64_t a0 = 0,
                      std::uint64_t a1 = 0) {
  emit(cat, name, phase, 0, 0.0, a0, a1);
}

/// Begin a session. Returns false (and changes nothing) if one is already
/// active. Rings are allocated lazily, on each thread's first emit.
bool start(const SessionOptions& options = {});

/// True between start() and stop().
bool active() noexcept;

/// End the session and drain every ring. Threads appear in first-emit
/// order (host-timing dependent; the sim exporter does not rely on it).
Trace stop();

/// Process-lifetime count of ring allocations — lets tests assert that a
/// disabled path allocated nothing.
std::uint64_t ring_allocations() noexcept;

/// Label the calling thread in subsequent drains ("exec-w3", "fleet").
void set_thread_name(std::string name);

const char* name_str(Name name) noexcept;
const char* cat_str(Cat cat) noexcept;
const char* phase_str(Phase phase) noexcept;

}  // namespace raa::obs

/// Emission macros — the only entry points instrumented code should use.
/// They compile away entirely under RAA_OBS_DISABLED (the operands are
/// kept type-checked but dead, so sites never grow unused-variable
/// warnings) and cost one relaxed load + branch when tracing is off.
#if RAA_OBS_ENABLED
#define RAA_OBS_SIM_EVENT(cat, name, phase, sim_ts, a0, a1)                  \
  do {                                                                       \
    if (::raa::obs::enabled())                                               \
      ::raa::obs::emit_sim(::raa::obs::Cat::cat, ::raa::obs::Name::name,     \
                           ::raa::obs::Phase::phase, (sim_ts), (a0), (a1));  \
  } while (0)
#define RAA_OBS_SIM_EVENT_F(cat, name, phase, sim_ts, a0, a1, extra_flags)   \
  do {                                                                       \
    if (::raa::obs::enabled())                                               \
      ::raa::obs::emit_sim(::raa::obs::Cat::cat, ::raa::obs::Name::name,     \
                           ::raa::obs::Phase::phase, (sim_ts), (a0), (a1),   \
                           (extra_flags));                                   \
  } while (0)
#define RAA_OBS_HOST_EVENT(cat, name, phase, a0, a1)                         \
  do {                                                                       \
    if (::raa::obs::enabled())                                               \
      ::raa::obs::emit_host(::raa::obs::Cat::cat, ::raa::obs::Name::name,    \
                            ::raa::obs::Phase::phase, (a0), (a1));           \
  } while (0)
#else
#define RAA_OBS_SIM_EVENT(cat, name, phase, sim_ts, a0, a1)                  \
  do {                                                                       \
    if (false) {                                                             \
      static_cast<void>(sim_ts);                                             \
      static_cast<void>(a0);                                                 \
      static_cast<void>(a1);                                                 \
    }                                                                        \
  } while (0)
#define RAA_OBS_SIM_EVENT_F(cat, name, phase, sim_ts, a0, a1, extra_flags)   \
  do {                                                                       \
    if (false) {                                                             \
      static_cast<void>(sim_ts);                                             \
      static_cast<void>(a0);                                                 \
      static_cast<void>(a1);                                                 \
      static_cast<void>(extra_flags);                                        \
    }                                                                        \
  } while (0)
#define RAA_OBS_HOST_EVENT(cat, name, phase, a0, a1)                         \
  do {                                                                       \
    if (false) {                                                             \
      static_cast<void>(a0);                                                 \
      static_cast<void>(a1);                                                 \
    }                                                                        \
  } while (0)
#endif
