#include "scenario/trace.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/check.hpp"
#include "memsim/system.hpp"
#include "report/json_bind.hpp"

namespace raa::scen {

namespace {

constexpr char kMagic[4] = {'R', 'A', 'A', 'T'};

// Per-access flags byte.
constexpr std::uint8_t kFlagStore = 1u << 0;
constexpr std::uint8_t kFlagRefShift = 1;  // bits 1-2
constexpr std::uint8_t kFlagRefMask = 0x3;
constexpr std::uint8_t kFlagHasGap = 1u << 3;
constexpr std::uint8_t kFlagRepeatDelta = 1u << 4;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// The one varint decoder (file framing, stream validation and replay):
/// nullptr on success, else why the bytes at `p` are not a varint.
const char* get_varint(const std::uint8_t*& p, const std::uint8_t* end,
                       std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (p >= end) return "truncated varint";
    const std::uint8_t b = *p++;
    v |= std::uint64_t{b & 0x7Fu} << shift;
    if (!(b & 0x80)) return nullptr;
  }
  return "overlong varint";
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Encoder for one core's stream (also the recorder's per-core state).
struct Encoder {
  TraceData::CoreStream* out = nullptr;
  std::uint64_t prev_addr = 0;
  std::int64_t prev_delta = 0;

  void encode(const mem::Access& a) {
    const std::int64_t delta =
        static_cast<std::int64_t>(a.addr - prev_addr);  // wrapping
    std::uint8_t flags =
        static_cast<std::uint8_t>((static_cast<unsigned>(a.ref) & kFlagRefMask)
                                  << kFlagRefShift);
    if (a.is_store) flags |= kFlagStore;
    if (a.gap_cycles != 0) flags |= kFlagHasGap;
    if (delta == prev_delta) flags |= kFlagRepeatDelta;
    out->bytes.push_back(flags);
    if (delta != prev_delta) put_varint(out->bytes, zigzag(delta));
    if (a.gap_cycles != 0) put_varint(out->bytes, a.gap_cycles);
    prev_addr = a.addr;
    prev_delta = delta;
    ++out->count;
  }
};

/// Pass-through CoreProgram that encodes everything the inner program
/// produces. Owns the inner program; the encoder writes into the
/// TraceData's per-core stream (stable storage owned by the caller).
class RecordingProgram final : public mem::CoreProgram {
 public:
  RecordingProgram(std::unique_ptr<mem::CoreProgram> inner,
                   TraceData::CoreStream* out)
      : inner_(std::move(inner)) {
    enc_.out = out;
  }

  bool next(mem::Access& out) override { return fill({&out, 1}) == 1; }

  std::size_t fill(std::span<mem::Access> out) override {
    const std::size_t n = inner_->fill(out);
    for (std::size_t i = 0; i < n; ++i) enc_.encode(out[i]);
    return n;
  }

 private:
  std::unique_ptr<mem::CoreProgram> inner_;
  Encoder enc_;
};

/// Decode the access at `p` of a stream whose previous address and delta
/// are `prev_addr`/`prev_delta` (Encoder's state, mirrored): nullptr on
/// success, else why not. Shared by load-time validation and
/// TraceProgram.
const char* decode_access(const std::uint8_t*& p, const std::uint8_t* end,
                          std::uint64_t& prev_addr, std::int64_t& prev_delta,
                          mem::Access& out) {
  if (p >= end) return "stream ends before its access count";
  const std::uint8_t flags = *p++;
  const unsigned ref = (flags >> kFlagRefShift) & kFlagRefMask;
  if (ref > static_cast<unsigned>(mem::RefClass::random_unknown))
    return "bad reference class";
  std::uint64_t v = 0;
  std::int64_t delta = prev_delta;
  if (!(flags & kFlagRepeatDelta)) {
    if (const char* e = get_varint(p, end, v)) return e;
    delta = unzigzag(v);
  }
  v = 0;
  if (flags & kFlagHasGap) {
    if (const char* e = get_varint(p, end, v)) return e;
    if (v > UINT32_MAX) return "gap does not fit 32 bits";
  }
  prev_addr += static_cast<std::uint64_t>(delta);  // wrapping
  prev_delta = delta;
  out = mem::Access{prev_addr, (flags & kFlagStore) != 0,
                    static_cast<mem::RefClass>(ref),
                    static_cast<std::uint32_t>(v)};
  return nullptr;
}

/// Validate that an encoded core stream decodes cleanly: exactly `count`
/// accesses and no trailing bytes. decode() runs this over every stream so
/// a truncated or bit-flipped file fails with a diagnostic at load time
/// instead of tripping RAA_CHECK deep inside a replay run.
const char* validate_stream(const TraceData::CoreStream& cs) {
  const std::uint8_t* p = cs.bytes.data();
  const std::uint8_t* end = p + cs.bytes.size();
  std::uint64_t prev_addr = 0;
  std::int64_t prev_delta = 0;
  mem::Access a;
  for (std::uint64_t i = 0; i < cs.count; ++i)
    if (const char* e = decode_access(p, end, prev_addr, prev_delta, a))
      return e;
  return p == end ? nullptr : "trailing bytes after the last access";
}

// --- fixed-width framing (little-endian) -----------------------------------

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t k = 0; k < sizeof(T); ++k)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

template <typename T>
bool get_le(const std::uint8_t*& p, const std::uint8_t* end, T& v) {
  if (static_cast<std::size_t>(end - p) < sizeof(T)) return false;
  v = 0;
  for (std::size_t k = 0; k < sizeof(T); ++k) v |= T{p[k]} << (8 * k);
  p += sizeof(T);
  return true;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> TraceData::encode(
    std::string* error) const {
  // The header stores numbers as JSON doubles, exact only up to 2^53.
  constexpr auto kMaxExact =
      static_cast<std::uint64_t>(json::bind::kMaxExactInt);
  for (const auto& r : regions)
    if (r.base > kMaxExact || r.bytes > kMaxExact) {
      if (error)
        *error = "region '" + r.name +
                 "': base and bytes must be at most 2^53 to be stored "
                 "exactly in the trace header";
      return std::nullopt;
    }
  const std::string header = trace_header_json(*this).dump();
  std::vector<std::uint8_t> buf(std::begin(kMagic), std::end(kMagic));
  put_le(buf, kTraceVersion);
  put_varint(buf, header.size());
  buf.insert(buf.end(), header.begin(), header.end());
  put_le(buf, static_cast<std::uint32_t>(cores.size()));
  for (const auto& cs : cores) {
    put_le(buf, cs.count);
    put_varint(buf, cs.bytes.size());
    buf.insert(buf.end(), cs.bytes.begin(), cs.bytes.end());
  }
  return buf;
}

std::optional<TraceData> TraceData::decode(std::span<const std::uint8_t> bytes,
                                           std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<TraceData> {
    if (error) *error = msg;
    return std::nullopt;
  };
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  const auto need = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(end - p) >= n;
  };

  if (!need(4) || std::memcmp(p, kMagic, 4) != 0)
    return fail("not a RAA trace file (bad magic)");
  p += 4;
  std::uint32_t version = 0;
  if (!get_le(p, end, version)) return fail("truncated header");
  if (version != kTraceVersion)
    return fail("unsupported trace version " + std::to_string(version) +
                " (want " + std::to_string(kTraceVersion) + ")");

  std::uint64_t header_bytes = 0;
  if (const char* e = get_varint(p, end, header_bytes)) return fail(e);
  if (!need(header_bytes)) return fail("truncated header");
  std::string why;
  const auto doc = json::Value::parse(
      {reinterpret_cast<const char*>(p), header_bytes}, &why);
  p += header_bytes;
  TraceData t;
  if (!doc) return fail("header: " + why);
  if (!read_trace_header(*doc, t, &why)) return fail(why);

  std::uint32_t core_count = 0;
  if (!get_le(p, end, core_count)) return fail("truncated core count");
  if (core_count != t.config.tiles)
    return fail("core stream count (" + std::to_string(core_count) +
                ") does not match config tiles (" +
                std::to_string(t.config.tiles) + ")");
  for (std::uint32_t i = 0; i < core_count; ++i) {
    CoreStream cs;
    std::uint64_t nbytes = 0;
    if (!get_le(p, end, cs.count)) return fail("truncated core stream");
    if (const char* e = get_varint(p, end, nbytes)) return fail(e);
    if (!need(nbytes)) return fail("truncated core stream");
    cs.bytes.assign(p, p + nbytes);
    p += nbytes;
    if (const char* e = validate_stream(cs))
      return fail("core stream " + std::to_string(i) + " is corrupt: " + e);
    t.cores.push_back(std::move(cs));
  }
  if (p != end) return fail("trailing bytes after last core stream");
  return t;
}

bool TraceData::write_file(const std::string& path, std::string* error) const {
  const auto buf = encode(error);
  if (!buf) return false;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok = std::fwrite(buf->data(), 1, buf->size(), f) == buf->size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

std::optional<TraceData> TraceData::read_file(const std::string& path,
                                              std::string* error) {
  std::ifstream in{path, std::ios::binary};
  const std::vector<std::uint8_t> buf{std::istreambuf_iterator<char>{in},
                                      std::istreambuf_iterator<char>{}};
  std::string why = !in.is_open() ? "cannot open for reading"
                    : in.bad()    ? "read error"
                                  : "";
  std::optional<TraceData> t;
  if (why.empty()) t = decode(buf, &why);
  if (!t && error) *error = path + ": " + why;
  return t;
}

TraceData::CoreStream encode_accesses(std::span<const mem::Access> accesses) {
  TraceData::CoreStream cs;
  Encoder enc;
  enc.out = &cs;
  for (const mem::Access& a : accesses) enc.encode(a);
  return cs;
}

std::vector<mem::Access> decode_stream(const TraceData::CoreStream& cs) {
  auto trace = std::make_shared<TraceData>();
  trace->cores.push_back(cs);
  TraceProgram prog{std::move(trace), 0};
  std::vector<mem::Access> out(cs.count);
  const std::size_t n = prog.fill({out.data(), out.size()});
  RAA_CHECK_MSG(n == cs.count, "stream decoded short of its access count");
  return out;
}

void record_workload(mem::Workload& w, const mem::SystemConfig& config,
                     mem::HierarchyMode mode, TraceData& trace) {
  trace.config = config;
  trace.mode = mode;
  trace.name = w.name;
  trace.regions.assign(w.regions.begin(), w.regions.end());
  trace.cores.clear();
  trace.cores.resize(w.programs.size());
  for (std::size_t c = 0; c < w.programs.size(); ++c)
    w.programs[c] = std::make_unique<RecordingProgram>(
        std::move(w.programs[c]), &trace.cores[c]);
}

mem::Workload make_replay_workload(std::shared_ptr<const TraceData> trace) {
  RAA_CHECK(trace != nullptr);
  mem::Workload w;
  w.name = trace->name;
  for (const auto& r : trace->regions) w.regions.push_back(r);
  for (std::size_t c = 0; c < trace->cores.size(); ++c)
    w.programs.push_back(std::make_unique<TraceProgram>(trace, c));
  return w;
}

std::optional<RecordReplay> record_and_replay(mem::Workload w,
                                              const mem::SystemConfig& config,
                                              mem::HierarchyMode mode,
                                              std::string* error) {
  TraceData trace;
  record_workload(w, config, mode, trace);
  RecordReplay out;
  out.recorded = mem::System{config, mode}.run(w);
  const auto bytes = trace.encode(error);
  if (!bytes) return std::nullopt;
  auto decoded = TraceData::decode(*bytes, error);
  if (!decoded) return std::nullopt;
  const mem::SystemConfig cfg = decoded->config;
  const mem::HierarchyMode replay_mode = decoded->mode;
  mem::Workload replay = make_replay_workload(
      std::make_shared<const TraceData>(std::move(*decoded)));
  out.replayed = mem::System{cfg, replay_mode}.run(replay);
  return out;
}

TraceProgram::TraceProgram(std::shared_ptr<const TraceData> trace,
                           std::size_t core)
    : trace_(std::move(trace)) {
  RAA_CHECK(trace_ != nullptr && core < trace_->cores.size());
  const auto& cs = trace_->cores[core];
  p_ = cs.bytes.data();
  end_ = p_ + cs.bytes.size();
  remaining_ = cs.count;
}

std::size_t TraceProgram::fill(std::span<mem::Access> out) {
  std::size_t n = 0;
  for (; n < out.size() && remaining_ > 0; ++n, --remaining_) {
    const char* e = decode_access(p_, end_, prev_addr_, prev_delta_, out[n]);
    RAA_CHECK_MSG(e == nullptr, e);
  }
  return n;
}

}  // namespace raa::scen
