#include "scenario/scenario.hpp"

#include <cstdint>
#include <span>
#include <string_view>

#include "report/json_bind.hpp"
#include "scenario/generators.hpp"
#include "scenario/trace.hpp"

namespace raa::scen {

namespace {

using namespace json::bind;
using json::Value;
using mem::BankedBackendParams;
using mem::FlatBackendParams;
using mem::MemoryConfig;
using mem::SystemConfig;
namespace bind = json::bind;

// --- the schema: one table per struct ------------------------------------

/// "config": every unsigned knob must be positive. lat_dram,
/// dram_cycles_per_line and e_dram_line moved into the flat backend's
/// parameters; their config-level keys stay as parse-only aliases so
/// pre-backend scenario files keep parsing ("memory" is read after
/// "config", so memory.flat wins when both are given).
constexpr Field<SystemConfig> kConfigFields[] = {
    field<&SystemConfig::tiles>("tiles", positive),
    field<&SystemConfig::mesh_x>("mesh_x", positive),
    field<&SystemConfig::mesh_y>("mesh_y", positive),
    field<&SystemConfig::mem_controllers>("mem_controllers", positive),
    field<&SystemConfig::line_bytes>("line_bytes", positive),
    field<&SystemConfig::l1_bytes>("l1_bytes", positive),
    field<&SystemConfig::l1_assoc>("l1_assoc", positive),
    field<&SystemConfig::l2_bank_bytes>("l2_bank_bytes", positive),
    field<&SystemConfig::l2_assoc>("l2_assoc", positive),
    field<&SystemConfig::spm_bytes>("spm_bytes", positive),
    field<&SystemConfig::dma_chunk_bytes>("dma_chunk_bytes", positive),
    field<&SystemConfig::lat_l1_hit>("lat_l1_hit", positive),
    field<&SystemConfig::lat_spm_hit>("lat_spm_hit", positive),
    field<&SystemConfig::lat_l2_hit>("lat_l2_hit", positive),
    field<&SystemConfig::lat_dir>("lat_dir", positive),
    field<&SystemConfig::lat_filter>("lat_filter", positive),
    field<&SystemConfig::lat_router>("lat_router", positive),
    field<&SystemConfig::lat_link>("lat_link", positive),
    field<&SystemConfig::e_l1_hit>("e_l1_hit"),
    field<&SystemConfig::e_l1_probe>("e_l1_probe"),
    field<&SystemConfig::e_spm>("e_spm"),
    field<&SystemConfig::e_l2>("e_l2"),
    field<&SystemConfig::e_dir>("e_dir"),
    field<&SystemConfig::e_filter>("e_filter"),
    field<&SystemConfig::e_flit_hop>("e_flit_hop"),
    field<&SystemConfig::e_static_per_tile_cycle>("e_static_per_tile_cycle"),
    field<&SystemConfig::memory, &MemoryConfig::flat,
          &FlatBackendParams::lat_dram>("lat_dram", positive | parse_only),
    field<&SystemConfig::memory, &MemoryConfig::flat,
          &FlatBackendParams::dram_cycles_per_line>(
        "dram_cycles_per_line", positive | parse_only),
    field<&SystemConfig::memory, &MemoryConfig::flat,
          &FlatBackendParams::e_dram_line>("e_dram_line", parse_only),
};

constexpr Field<FlatBackendParams> kFlatFields[] = {
    field<&FlatBackendParams::lat_dram>("lat_dram", positive),
    field<&FlatBackendParams::dram_cycles_per_line>("dram_cycles_per_line",
                                                    positive),
    field<&FlatBackendParams::e_dram_line>("e_dram_line"),
};

/// Timings and the refresh knobs may be 0 (refresh can be disabled
/// outright); the other unsigned knobs must be positive.
constexpr Field<BankedBackendParams> kBankedFields[] = {
    field<&BankedBackendParams::channels>("channels", positive),
    field<&BankedBackendParams::banks_per_channel>("banks_per_channel",
                                                   positive),
    field<&BankedBackendParams::mapping>("mapping"),
    field<&BankedBackendParams::row_bytes>("row_bytes", positive),
    field<&BankedBackendParams::t_rp>("t_rp"),
    field<&BankedBackendParams::t_rcd>("t_rcd"),
    field<&BankedBackendParams::t_cas>("t_cas"),
    field<&BankedBackendParams::line_cycles>("line_cycles", positive),
    field<&BankedBackendParams::refresh_interval>("refresh_interval"),
    field<&BankedBackendParams::refresh_cycles>("refresh_cycles"),
    field<&BankedBackendParams::dma_cycles_per_line>("dma_cycles_per_line",
                                                     positive),
    field<&BankedBackendParams::e_line>("e_line"),
    field<&BankedBackendParams::e_activate>("e_activate"),
    field<&BankedBackendParams::e_refresh>("e_refresh"),
};

constexpr Field<MemoryConfig> kMemoryFields[] = {
    field<&MemoryConfig::kind>("backend"),
    object<kFlatFields, &MemoryConfig::flat>("flat"),
    object<kBankedFields, &MemoryConfig::banked>("banked"),
};

constexpr Field<RegionSpec> kRegionFields[] = {
    field<&RegionSpec::name>("name", required | positive),
    field<&RegionSpec::ref>("class", required),
    field<&RegionSpec::bytes>("bytes", omit_empty),
    field<&RegionSpec::bytes_per_core>("bytes_per_core", omit_empty),
};

constexpr Field<StreamSpec> kStreamFields[] = {
    key<StreamSpec>("region", required),
    field<&StreamSpec::kind>("kind"),
    field<&StreamSpec::store>("store"),
    field<&StreamSpec::ref>("class"),
    field<&StreamSpec::start>("start"),
    field<&StreamSpec::stride>("stride"),
    field<&StreamSpec::elem_bytes>("elem_bytes", positive),
    key<StreamSpec>("slice"),
};

constexpr Field<PhaseSpec> kPhaseFields[] = {
    field<&PhaseSpec::iterations>("iterations", required | positive),
    field<&PhaseSpec::gap_cycles>("gap_cycles"),
    key<PhaseSpec>("streams", required),
};

/// Every key a "programs" entry can carry; the generator's key list picks
/// the rows that apply (program_rows).
constexpr Field<ProgramSpec> kProgramFields[] = {
    field<&ProgramSpec::kind>("generator", required),
    key<ProgramSpec>("cores"),
    key<ProgramSpec>("phases", required),
    key<ProgramSpec>("region", required),
    key<ProgramSpec>("in", required),
    key<ProgramSpec>("out", required),
    key<ProgramSpec>("slice"),
    field<&ProgramSpec::ref>("class"),
    field<&ProgramSpec::halo_ref>("halo_class"),
    field<&ProgramSpec::accesses>("accesses", required | positive),
    field<&ProgramSpec::iterations>("iterations", required | positive),
    field<&ProgramSpec::bursts>("bursts", required | positive),
    field<&ProgramSpec::burst_len>("burst_len", required | positive),
    field<&ProgramSpec::sweeps>("sweeps", positive),
    field<&ProgramSpec::halo>("halo"),
    field<&ProgramSpec::elem_bytes>("elem_bytes", positive),
    field<&ProgramSpec::gap_cycles>("gap_cycles"),
    field<&ProgramSpec::gap_on>("gap_on"),
    field<&ProgramSpec::gap_off>("gap_off"),
    field<&ProgramSpec::hot_fraction>("hot_fraction", fraction),
    field<&ProgramSpec::hot_weight>("hot_weight", fraction),
    field<&ProgramSpec::store_fraction>("store_fraction", fraction),
};

/// Each generator's allowed keys, in emission order. One list per
/// generator, not one global order: zipf emits elem_bytes before
/// store_fraction, bursty the other way round.
constexpr const char* kScriptedKeys[] = {"generator", "cores", "phases"};
constexpr const char* kZipfKeys[] = {
    "generator", "cores", "region", "slice", "class", "accesses",
    "elem_bytes", "hot_fraction", "hot_weight", "store_fraction",
    "gap_cycles"};
constexpr const char* kPointerChaseKeys[] = {
    "generator", "cores", "region", "slice", "class", "accesses",
    "elem_bytes", "gap_cycles"};
constexpr const char* kStencilKeys[] = {
    "generator", "cores", "in", "out", "sweeps", "halo", "halo_class",
    "elem_bytes", "gap_cycles"};
constexpr const char* kProducerConsumerKeys[] = {
    "generator", "cores", "region", "class", "iterations", "elem_bytes",
    "gap_cycles"};
constexpr const char* kBurstyKeys[] = {
    "generator", "cores", "region", "slice", "class", "bursts",
    "burst_len", "gap_on", "gap_off", "store_fraction", "elem_bytes"};

/// Indexed by GenKind, in the order of its enumerators.
constexpr std::span<const char* const> kGeneratorKeys[] = {
    kScriptedKeys, kZipfKeys, kPointerChaseKeys,
    kStencilKeys, kProducerConsumerKeys, kBurstyKeys};

/// The rows of a generator's key list, in the list's order.
std::vector<Field<ProgramSpec>> program_rows(GenKind kind) {
  std::vector<Field<ProgramSpec>> rows;
  for (const std::string_view k :
       kGeneratorKeys[static_cast<std::size_t>(kind)])
    for (const auto& f : kProgramFields)
      if (k == f.key) rows.push_back(f);
  return rows;
}

constexpr Field<Scenario> kScenarioFields[] = {
    field<&Scenario::name>("name", required | positive),
    field<&Scenario::description>("description", omit_empty),
    field<&Scenario::mode>("mode"),
    field<&Scenario::seed>("seed"),
    object<kConfigFields, &Scenario::config>("config"),
    object<kMemoryFields, &Scenario::config, &SystemConfig::memory>("memory"),
    key<Scenario>("regions", required),
    key<Scenario>("programs"),  // required, checked after the regions
};

/// A RAAT trace's JSON header (trace.hpp). "config" and "memory" bind
/// exactly as in a scenario file; regions are the laid-out mem::Regions.
constexpr Field<mem::Region> kTraceRegionFields[] = {
    field<&mem::Region::name>("name", required),
    field<&mem::Region::base>("base", required),
    field<&mem::Region::bytes>("bytes", required),
    field<&mem::Region::ref>("class", required),
};

constexpr Field<TraceData> kTraceHeaderFields[] = {
    field<&TraceData::name>("name", required),
    field<&TraceData::mode>("mode", required),
    object<kConfigFields, &TraceData::config>("config", required),
    object<kMemoryFields, &TraceData::config, &SystemConfig::memory>(
        "memory", required),
    object<kTraceRegionFields, &TraceData::regions>("regions", required),
};

// --- plain checks after the table pass ------------------------------------

bool check_config(const Ctx& c, const std::string& path,
                  const SystemConfig& cfg) {
  const std::uint64_t mesh = std::uint64_t{cfg.mesh_x} * cfg.mesh_y;
  if (cfg.tiles != mesh)
    return c.fail(path, "tiles (" + std::to_string(cfg.tiles) +
                            ") must equal mesh_x * mesh_y (" +
                            std::to_string(mesh) + ")");
  if (cfg.dma_chunk_bytes % cfg.line_bytes != 0)
    return c.fail(path, "dma_chunk_bytes must be a multiple of line_bytes");
  return true;
}

bool parse_regions(const Ctx& c, const Value& v, const std::string& path,
                   std::uint32_t dma_chunk_bytes,
                   std::vector<RegionSpec>& out) {
  const auto parse_region = [&](const Value& rv, const std::string& p) {
    RegionSpec r;
    if (!bind::read(c, rv, p, kRegionFields, r)) return false;
    if ((r.bytes == 0) == (r.bytes_per_core == 0))
      return c.fail(p, "give exactly one of \"bytes\" or \"bytes_per_core\"");
    // Strided per-core slices become SPM software-cache tiles; a slice
    // that is not a whole number of DMA chunks would make adjacent cores
    // share a chunk, violating the protocol's no-overlap tiling contract
    // (System aborts on it mid-run — catch it here instead).
    if (r.ref == mem::RefClass::strided && r.bytes_per_core != 0 &&
        r.bytes_per_core % dma_chunk_bytes != 0)
      return c.fail(p + ".bytes_per_core",
                    "strided per-core slices must be a multiple of "
                    "dma_chunk_bytes (" + std::to_string(dma_chunk_bytes) +
                        ")");
    for (const auto& seen : out)
      if (seen.name == r.name)
        return c.fail(p + ".name", "duplicate region name '" + r.name + "'");
    out.push_back(std::move(r));
    return true;
  };
  return each(c, v, path, "expected a non-empty array of regions",
              parse_region);
}

/// Resolve the region name at obj[key] (the table pass checked that it
/// is present) to its index.
bool region_ref(const Ctx& c, const Value& obj, const std::string& path,
                const char* key, const std::vector<RegionSpec>& regions,
                std::size_t& out) {
  const std::string p = path + "." + key;
  const Value& v = *obj.find(key);
  if (!v.is_string()) return c.fail(p, "expected a string");
  for (std::size_t i = 0; i < regions.size(); ++i)
    if (regions[i].name == v.as_string()) {
      out = i;
      return true;
    }
  return c.fail(p, "unknown region '" + v.as_string() + "'");
}

/// Parse a "slice" value ("core" or "all") into the per-core flag;
/// validates that "core" is only used with bytes_per_core regions.
bool parse_slice(const Ctx& c, const Value& obj, const std::string& path,
                 const std::vector<RegionSpec>& regions, std::size_t region,
                 bool& per_core) {
  per_core = regions[region].bytes_per_core != 0;  // the natural default
  const Value* v = obj.find("slice");
  if (v == nullptr) return true;
  if (!v->is_string() ||
      (v->as_string() != "core" && v->as_string() != "all"))
    return c.fail(path + ".slice", "expected \"core\" or \"all\"");
  per_core = v->as_string() == "core";
  if (per_core && regions[region].bytes_per_core == 0)
    return c.fail(path + ".slice",
                  "\"core\" requires a bytes_per_core region, but '" +
                      regions[region].name + "' declares \"bytes\"");
  return true;
}

/// Byte length of the window a stream/generator draws from.
std::uint64_t window_bytes(const RegionSpec& r, bool per_core,
                           unsigned tiles) {
  return per_core ? r.bytes_per_core
                  : (r.bytes != 0 ? r.bytes : r.bytes_per_core * tiles);
}

bool parse_streams(const Ctx& c, const Value& v, const std::string& path,
                   const std::vector<RegionSpec>& regions, unsigned tiles,
                   std::uint64_t iterations, std::vector<StreamSpec>& out) {
  const auto parse_stream = [&](const Value& sv, const std::string& p) {
    StreamSpec s;
    if (!bind::read(c, sv, p, kStreamFields, s) ||
        !region_ref(c, sv, p, "region", regions, s.region) ||
        !parse_slice(c, sv, p, regions, s.region, s.per_core_slice))
      return false;
    const std::uint64_t window =
        window_bytes(regions[s.region], s.per_core_slice, tiles);
    if (s.kind == kern::StreamKind::linear) {
      if (s.stride == 0) return c.fail(p + ".stride", "must be positive");
      if (s.start >= window)
        return c.fail(p + ".start", "beyond the " + std::to_string(window) +
                                        "-byte window");
      // Division form: `start + (iterations-1)*stride` could wrap uint64
      // and dodge the bound.
      const std::uint64_t max_iters = (window - s.start - 1) / s.stride + 1;
      if (iterations > max_iters)
        return c.fail(
            p, "linear stream runs past its " + std::to_string(window) +
                   "-byte window after " + std::to_string(iterations) +
                   " iterations (start " + std::to_string(s.start) +
                   ", stride " + std::to_string(s.stride) + ")");
    } else if (s.start + s.elem_bytes > window) {
      return c.fail(p, "random stream window smaller than one element");
    }
    out.push_back(s);
    return true;
  };
  return each(c, v, path, "expected a non-empty array of streams",
              parse_stream);
}

bool parse_phases(const Ctx& c, const Value& v, const std::string& path,
                  const std::vector<RegionSpec>& regions, unsigned tiles,
                  std::vector<PhaseSpec>& out) {
  const auto parse_phase = [&](const Value& pv, const std::string& p) {
    PhaseSpec ph;
    if (!bind::read(c, pv, p, kPhaseFields, ph) ||
        !parse_streams(c, *pv.find("streams"), p + ".streams", regions, tiles,
                       ph.iterations, ph.streams))
      return false;
    out.push_back(std::move(ph));
    return true;
  };
  return each(c, v, path, "expected a non-empty array of phases",
              parse_phase);
}

bool parse_cores(const Ctx& c, const Value& obj, const std::string& path,
                 unsigned tiles, std::vector<unsigned>& out) {
  const Value* v = obj.find("cores");
  if (v == nullptr) return true;  // default: all cores
  if (v->is_string()) {
    if (v->as_string() == "all") return true;
    return c.fail(path + ".cores", "expected \"all\" or an array of cores");
  }
  return each(c, *v, path + ".cores", "expected \"all\" or a non-empty array",
              [&](const Value& cv, const std::string& p) {
                std::uint64_t core = 0;
                if (!convert(c, cv, p, 0, 0, core)) return false;
                if (core >= tiles)
                  return c.fail(p, "core " + std::to_string(core) +
                                       " out of range (tiles = " +
                                       std::to_string(tiles) + ")");
                out.push_back(static_cast<unsigned>(core));
                return true;
              });
}

bool parse_program(const Ctx& c, const Value& v, const std::string& path,
                   const std::vector<RegionSpec>& regions, unsigned tiles,
                   ProgramSpec& p) {
  if (!v.is_object()) return c.fail(path, "expected an object");
  // The generator picks the key list the table pass checks against.
  const Value* gen = v.find("generator");
  if (gen == nullptr) return c.fail(path, "missing required key \"generator\"");
  if (!convert(c, *gen, path + ".generator", 0, 0, p.kind) ||
      !bind::read(c, v, path, program_rows(p.kind), p) ||
      !parse_cores(c, v, path, tiles, p.cores))
    return false;

  /// Window must hold >= `min_elems` elements of p.elem_bytes.
  const auto window_check = [&](std::size_t region, bool per_core,
                                std::uint64_t min_elems) {
    const std::uint64_t window = window_bytes(regions[region], per_core, tiles);
    if (window / p.elem_bytes < min_elems)
      return c.fail(path, "region '" + regions[region].name +
                              "' window too small: need at least " +
                              std::to_string(min_elems) + " elements of " +
                              std::to_string(p.elem_bytes) + " bytes");
    return true;
  };
  const auto needs_bytes_per_core = [&](std::size_t r, const char* what) {
    if (regions[r].bytes_per_core != 0) return true;
    return c.fail(path, std::string{what} + ", but '" + regions[r].name +
                            "' declares \"bytes\"");
  };

  switch (p.kind) {
    case GenKind::scripted:
      return parse_phases(c, *v.find("phases"), path + ".phases", regions,
                          tiles, p.phases);
    case GenKind::stencil:
      if (!region_ref(c, v, path, "in", regions, p.region) ||
          !region_ref(c, v, path, "out", regions, p.out_region))
        return false;
      for (const std::size_t r : {p.region, p.out_region})
        if (!needs_bytes_per_core(
                r, "stencil grids must be bytes_per_core regions"))
          return false;
      if (p.halo_ref && *p.halo_ref == mem::RefClass::strided)
        return c.fail(path + ".halo_class",
                      "halo taps cross core slices and cannot be strided "
                      "(overlapping SPM tiles)");
      if (regions[p.out_region].bytes_per_core <
          regions[p.region].bytes_per_core)
        return c.fail(path, "output grid '" + regions[p.out_region].name +
                                "' is smaller per core than input grid '" +
                                regions[p.region].name + "'");
      return window_check(p.region, /*per_core=*/true, 1);
    case GenKind::producer_consumer:
      return region_ref(c, v, path, "region", regions, p.region) &&
             needs_bytes_per_core(p.region,
                                  "producer_consumer needs a bytes_per_core "
                                  "region (the per-core slot)") &&
             window_check(p.region, /*per_core=*/true, 1);
    case GenKind::zipf:
    case GenKind::pointer_chase:
    case GenKind::bursty:
      if (!region_ref(c, v, path, "region", regions, p.region) ||
          !parse_slice(c, v, path, regions, p.region, p.per_core_slice))
        return false;
      if (p.kind == GenKind::zipf &&
          (p.hot_fraction <= 0.0 || p.hot_fraction >= 1.0))
        return c.fail(path + ".hot_fraction",
                      "must be strictly inside (0, 1)");
      return window_check(p.region, p.per_core_slice,
                          p.kind == GenKind::bursty ? 1 : 2);
  }
  return false;
}

}  // namespace

std::vector<mem::HierarchyMode> hierarchy_modes(ScenarioMode mode) {
  if (mode == ScenarioMode::compare)
    return {mem::HierarchyMode::cache_only, mem::HierarchyMode::hybrid};
  return {mode == ScenarioMode::hybrid ? mem::HierarchyMode::hybrid
                                       : mem::HierarchyMode::cache_only};
}

std::optional<Scenario> Scenario::parse(const json::Value& doc,
                                        std::string* error) {
  const Ctx c{error};
  const std::string root = "scenario";
  Scenario s;
  std::vector<int> owner;  // per core: the programs[] entry claiming it
  const auto parse_one = [&](const Value& pv, const std::string& p) {
    ProgramSpec prog;
    if (!parse_program(c, pv, p, s.regions, s.config.tiles, prog))
      return false;
    // No core may be claimed twice (cores nobody claims simply idle).
    std::vector<unsigned> cores = prog.cores;
    if (cores.empty())
      for (unsigned t = 0; t < s.config.tiles; ++t) cores.push_back(t);
    for (const unsigned core : cores) {
      if (owner[core] >= 0)
        return c.fail(p, "core " + std::to_string(core) +
                             " is already claimed by programs[" +
                             std::to_string(owner[core]) + "]");
      owner[core] = static_cast<int>(s.programs.size());
    }
    s.programs.push_back(std::move(prog));
    return true;
  };
  const auto parse_programs = [&] {
    const Value* pv = doc.find("programs");
    if (pv == nullptr)
      return c.fail(root, "missing required key \"programs\"");
    owner.assign(s.config.tiles, -1);
    return each(c, *pv, root + ".programs",
                "expected a non-empty array of programs", parse_one);
  };
  if (!bind::read(c, doc, root, kScenarioFields, s) ||
      !check_config(c, root + ".config", s.config) ||
      !parse_regions(c, *doc.find("regions"), root + ".regions",
                     s.config.dma_chunk_bytes, s.regions) ||
      !parse_programs())
    return std::nullopt;
  return s;
}

std::optional<Scenario> Scenario::load_file(const std::string& path,
                                            std::string* error) {
  const auto doc = json::Value::parse_file(path, error);
  if (!doc) return std::nullopt;
  std::string why;
  auto s = parse(*doc, &why);
  if (!s && error) *error = path + ": " + why;
  return s;
}

/// Every key parse() reads is emitted explicitly (defaults included), so
/// the parse(to_json()) round trip restores every field bit-for-bit
/// instead of relying on the two sides agreeing about defaults.
json::Value Scenario::to_json() const {
  const auto program_json = [&](const ProgramSpec& p) {
    return bind::write(program_rows(p.kind), p, [&](std::string_view key,
                                                    Value& obj) {
      if (key == "cores") {
        if (p.cores.empty()) return;
        Value cores;
        for (const unsigned core : p.cores) cores.push_back(core);
        obj.set("cores", std::move(cores));
      } else if (key == "phases") {
        Value phases;
        for (const PhaseSpec& ph : p.phases)
          phases.push_back(bind::write(kPhaseFields, ph, [&](std::string_view,
                                                             Value& pv) {
            Value streams;
            for (const StreamSpec& st : ph.streams)
              streams.push_back(bind::write(
                  kStreamFields, st, [&](std::string_view k, Value& sv) {
                    if (k == "region")
                      sv.set("region", regions[st.region].name);
                    else
                      sv.set("slice", st.per_core_slice ? "core" : "all");
                  }));
            pv.set("streams", std::move(streams));
          }));
        obj.set("phases", std::move(phases));
      } else if (key == "slice") {
        obj.set("slice", p.per_core_slice ? "core" : "all");
      } else {  // "region", "in" or "out"
        obj.set(std::string{key},
                regions[key == "out" ? p.out_region : p.region].name);
      }
    });
  };
  return bind::write(kScenarioFields, *this, [&](std::string_view key,
                                                 Value& doc) {
    Value list;
    if (key == "regions")
      for (const RegionSpec& r : regions)
        list.push_back(bind::write(kRegionFields, r));
    else
      for (const ProgramSpec& p : programs) list.push_back(program_json(p));
    doc.set(std::string{key}, std::move(list));
  });
}

json::Value trace_header_json(const TraceData& trace) {
  return bind::write(kTraceHeaderFields, trace);
}

bool read_trace_header(const json::Value& doc, TraceData& trace,
                       std::string* error) {
  const Ctx c{error};
  const std::string root = "header";
  return bind::read(c, doc, root, kTraceHeaderFields, trace) &&
         check_config(c, root + ".config", trace.config);
}

std::optional<std::size_t> Scenario::first_unreferenced_region() const {
  std::vector<bool> used(regions.size(), false);
  for (const auto& p : programs) {
    if (p.kind == GenKind::scripted) {
      for (const auto& ph : p.phases)
        for (const auto& st : ph.streams) used[st.region] = true;
    } else {
      used[p.region] = true;
      if (p.kind == GenKind::stencil) used[p.out_region] = true;
    }
  }
  for (std::size_t i = 0; i < used.size(); ++i)
    if (!used[i]) return i;
  return std::nullopt;
}

mem::Workload Scenario::instantiate() const {
  mem::Workload w;
  w.name = name;
  kern::AddressSpace as{config.dma_chunk_bytes};
  std::vector<const mem::Region*> regs;
  regs.reserve(regions.size());
  for (const auto& r : regions) {
    const std::uint64_t total =
        r.bytes != 0 ? r.bytes : r.bytes_per_core * config.tiles;
    regs.push_back(&as.add(w, r.name, total, r.ref));
  }

  /// The window a spec draws from on core `c`.
  const auto window = [&](std::size_t region, bool per_core,
                          unsigned c) -> Slice {
    const RegionSpec& r = regions[region];
    const std::uint64_t total =
        r.bytes != 0 ? r.bytes : r.bytes_per_core * config.tiles;
    if (per_core)
      return Slice{regs[region]->base + std::uint64_t{c} * r.bytes_per_core,
                   r.bytes_per_core};
    return Slice{regs[region]->base, total};
  };

  std::vector<const ProgramSpec*> owner(config.tiles, nullptr);
  for (const auto& p : programs) {
    if (p.cores.empty()) {
      for (auto& o : owner) o = &p;
    } else {
      for (const unsigned c : p.cores) owner[c] = &p;
    }
  }

  for (unsigned c = 0; c < config.tiles; ++c) {
    // Deterministic per-core seeds, distinct across cores and scenarios.
    const std::uint64_t core_seed =
        seed * 0x9e3779b97f4a7c15ULL + std::uint64_t{c} + 1;
    const ProgramSpec* p = owner[c];
    if (p == nullptr) {
      // Unclaimed core: an immediately-ending program (the core idles).
      w.programs.push_back(std::make_unique<kern::ScriptedProgram>(
          std::vector<kern::Phase>{}, core_seed));
      continue;
    }
    switch (p->kind) {
      case GenKind::scripted: {
        std::vector<kern::Phase> phases;
        for (const auto& ph : p->phases) {
          kern::Phase phase;
          phase.iterations = ph.iterations;
          phase.gap_cycles = ph.gap_cycles;
          for (const auto& st : ph.streams) {
            const Slice win = window(st.region, st.per_core_slice, c);
            const std::uint64_t rel = win.base - regs[st.region]->base;
            kern::Stream stream;
            stream.region = regs[st.region];
            stream.kind = st.kind;
            stream.store = st.store;
            stream.ref = st.ref.value_or(regions[st.region].ref);
            stream.elem_bytes = st.elem_bytes;
            if (st.kind == kern::StreamKind::linear) {
              stream.start = rel + st.start;
              stream.stride = st.stride;
            } else {
              stream.slice_base = rel + st.start;
              stream.slice_bytes = win.bytes - st.start;
            }
            phase.streams.push_back(stream);
          }
          phases.push_back(std::move(phase));
        }
        w.programs.push_back(std::make_unique<kern::ScriptedProgram>(
            std::move(phases), core_seed));
        break;
      }
      case GenKind::zipf: {
        ZipfParams zp;
        zp.slice = window(p->region, p->per_core_slice, c);
        zp.accesses = p->accesses;
        zp.elem_bytes = p->elem_bytes;
        zp.hot_fraction = p->hot_fraction;
        zp.hot_weight = p->hot_weight;
        zp.store_fraction = p->store_fraction;
        zp.gap_cycles = p->gap_cycles;
        zp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(std::make_unique<ZipfProgram>(zp, core_seed));
        break;
      }
      case GenKind::pointer_chase: {
        PointerChaseParams pp;
        pp.slice = window(p->region, p->per_core_slice, c);
        pp.accesses = p->accesses;
        pp.elem_bytes = p->elem_bytes;
        pp.gap_cycles = p->gap_cycles;
        pp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(
            std::make_unique<PointerChaseProgram>(pp, core_seed));
        break;
      }
      case GenKind::stencil: {
        StencilParams sp;
        sp.in_region = window(p->region, /*per_core=*/false, c);
        sp.out_region = window(p->out_region, /*per_core=*/false, c);
        const std::uint64_t elems_pc =
            regions[p->region].bytes_per_core / p->elem_bytes;
        sp.elem_offset = std::uint64_t{c} * elems_pc;
        sp.elems = elems_pc;
        sp.halo = p->halo;
        sp.sweeps = p->sweeps;
        sp.elem_bytes = p->elem_bytes;
        sp.gap_cycles = p->gap_cycles;
        sp.in_ref = p->ref.value_or(regions[p->region].ref);
        sp.out_ref = p->ref.value_or(regions[p->out_region].ref);
        sp.halo_ref = p->halo_ref.value_or(mem::RefClass::random_unknown);
        w.programs.push_back(std::make_unique<StencilProgram>(sp));
        break;
      }
      case GenKind::producer_consumer: {
        ProducerConsumerParams cp;
        cp.ring = window(p->region, /*per_core=*/false, c);
        cp.slot_bytes = regions[p->region].bytes_per_core;
        cp.core = c;
        cp.cores = config.tiles;
        cp.iterations = p->iterations;
        cp.elem_bytes = p->elem_bytes;
        cp.gap_cycles = p->gap_cycles;
        cp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(std::make_unique<ProducerConsumerProgram>(cp));
        break;
      }
      case GenKind::bursty: {
        BurstyParams bp;
        bp.slice = window(p->region, p->per_core_slice, c);
        bp.bursts = p->bursts;
        bp.burst_len = p->burst_len;
        bp.gap_on = p->gap_on;
        bp.gap_off = p->gap_off;
        bp.store_fraction = p->store_fraction;
        bp.elem_bytes = p->elem_bytes;
        bp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(std::make_unique<BurstyProgram>(bp, core_seed));
        break;
      }
    }
  }
  return w;
}

}  // namespace raa::scen
