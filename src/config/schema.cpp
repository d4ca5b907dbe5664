#include "config/schema.hpp"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "config/reader.hpp"
#include "sim/protocols/registry.hpp"

namespace qlec::config {
namespace {

// Strict-reading machinery (ObjectReader, describe, ...) lives in
// config/reader.hpp since the manifest parser shares it.
using detail::ObjectReader;
using detail::describe;
using detail::kInf;

// ---- enum tables ----

template <typename E>
using EnumTable = std::vector<std::pair<E, const char*>>;

const EnumTable<BsPlacement>& bs_table() {
  static const EnumTable<BsPlacement> t = {
      {BsPlacement::kCenter, "center"},
      {BsPlacement::kTopFaceCenter, "top_face_center"},
      {BsPlacement::kCorner, "corner"},
      {BsPlacement::kExternal, "external"},
  };
  return t;
}

const EnumTable<Aggregation>& aggregation_table() {
  static const EnumTable<Aggregation> t = {
      {Aggregation::kRatioCompress, "ratio_compress"},
      {Aggregation::kFixedSummary, "fixed_summary"},
  };
  return t;
}

const EnumTable<MobilityKind>& mobility_table() {
  static const EnumTable<MobilityKind> t = {
      {MobilityKind::kNone, "none"},
      {MobilityKind::kRandomWalk, "random_walk"},
      {MobilityKind::kRandomWaypoint, "random_waypoint"},
  };
  return t;
}

const EnumTable<obs::TelemetryOptions::Sink>& sink_table() {
  static const EnumTable<obs::TelemetryOptions::Sink> t = {
      {obs::TelemetryOptions::Sink::kNull, "null"},
      {obs::TelemetryOptions::Sink::kRing, "ring"},
      {obs::TelemetryOptions::Sink::kFile, "file"},
  };
  return t;
}

const EnumTable<FaultKind>& fault_kind_table() {
  static const EnumTable<FaultKind> t = {
      {FaultKind::kCrash, fault_kind_name(FaultKind::kCrash)},
      {FaultKind::kStun, fault_kind_name(FaultKind::kStun)},
      {FaultKind::kBlackout, fault_kind_name(FaultKind::kBlackout)},
      {FaultKind::kLinkDegrade, fault_kind_name(FaultKind::kLinkDegrade)},
      {FaultKind::kBsOutage, fault_kind_name(FaultKind::kBsOutage)},
      {FaultKind::kBatteryFade, fault_kind_name(FaultKind::kBatteryFade)},
  };
  return t;
}

const EnumTable<SectorMode>& sector_mode_table() {
  static const EnumTable<SectorMode> t = {
      {SectorMode::kQuadrant, "quadrant"},
      {SectorMode::kOctant, "octant"},
  };
  return t;
}

const EnumTable<ControllerKind>& controller_kind_table() {
  static const EnumTable<ControllerKind> t = {
      {ControllerKind::kRlLite, "rl-lite"},
      {ControllerKind::kPassthrough, "passthrough"},
  };
  return t;
}

const EnumTable<TrajectoryKind>& trajectory_table() {
  static const EnumTable<TrajectoryKind> t = {
      {TrajectoryKind::kNone, trajectory_kind_name(TrajectoryKind::kNone)},
      {TrajectoryKind::kWaypoint,
       trajectory_kind_name(TrajectoryKind::kWaypoint)},
      {TrajectoryKind::kOrbit, trajectory_kind_name(TrajectoryKind::kOrbit)},
  };
  return t;
}

const EnumTable<Deployment>& deployment_table() {
  static const EnumTable<Deployment> t = {
      {Deployment::kUniform, deployment_name(Deployment::kUniform)},
      {Deployment::kTerrain, deployment_name(Deployment::kTerrain)},
  };
  return t;
}

template <typename E>
const char* table_name(const EnumTable<E>& table, E value) noexcept {
  for (const auto& [e, name] : table)
    if (e == value) return name;
  return "?";
}

// ---- the two walkers ----
//
// Every config struct has one field list below: a generic lambda
// `(auto& f, auto& s)` naming each key once, in echo order, with its domain.
// The Reader walks it with `s` mutable and binds JSON into the struct; the
// Writer walks it with `s` const and emits JSON, ignoring the domains. Both
// offer the same calls:
//   number / int_field / size_field / seed_field / boolean / string_field
//       typed leaves (ObjectReader's readers and bounds)
//   enumeration(key, e, table)   an enum spelled by its table token
//   one_of(key, s, names)        a string from `names()`
//   vec3(key, v)                 an [x, y, z] array
//   object(key, s, fields)       a nested object walked by `fields`
//   array(key, items[, fields])  objects walked by `fields`, or Vec3s

class Reader : public ObjectReader {
 public:
  using ObjectReader::ObjectReader;

  static void bind(const JsonValue& v, const std::string& path, Vec3& out) {
    const bool ok = v.is_array() && v.size() == 3 && v.at(0).is_number() &&
                    v.at(1).is_number() && v.at(2).is_number() &&
                    std::isfinite(v.at(0).as_double()) &&
                    std::isfinite(v.at(1).as_double()) &&
                    std::isfinite(v.at(2).as_double());
    if (!ok)
      throw ConfigError(path, "expected [x, y, z] array of 3 finite numbers, "
                              "got " + describe(v));
    out = {v.at(0).as_double(), v.at(1).as_double(), v.at(2).as_double()};
  }

  template <typename T, typename Fields>
  static void bind(const JsonValue& v, const std::string& path, T& out,
                   Fields fields) {
    Reader r(v, path);
    fields(r, out);
    r.finish();
  }

  template <typename E>
  void enumeration(const std::string& key, E& out,
                   const EnumTable<E>& table) {
    if (const JsonValue* j = find(key))
      out = choose(key, *j, table, [](const auto& e) { return e.second; })
                .first;
  }

  template <typename Names>
  void one_of(const std::string& key, std::string& out, Names names) {
    if (const JsonValue* j = find(key))
      out = choose(key, *j, names(),
                   [](const std::string& n) -> const std::string& {
                     return n;
                   });
  }

  void vec3(const std::string& key, Vec3& out) {
    if (const JsonValue* j = find(key)) bind(*j, sub(key), out);
  }

  template <typename T, typename Fields>
  void object(const std::string& key, T& out, Fields fields) {
    if (const JsonValue* j = find(key)) bind(*j, sub(key), out, fields);
  }

  template <typename T, typename... Fields>
  void array(const std::string& key, std::vector<T>& out, Fields... fields) {
    const JsonValue* j = find(key);
    if (j == nullptr) return;
    if (!j->is_array())
      throw ConfigError(sub(key), "expected array, got " + describe(*j));
    out.clear();
    for (std::size_t i = 0; i < j->size(); ++i) {
      T item;
      bind(j->at(i), sub(key) + "[" + std::to_string(i) + "]", item,
           fields...);
      out.push_back(std::move(item));
    }
  }

 private:
  /// The entry of `choices` whose `token` the string `j` spells; anything
  /// else is "expected one of a|b|..., got ...".
  template <typename Choices, typename Token>
  const auto& choose(const std::string& key, const JsonValue& j,
                     const Choices& choices, Token token) const {
    if (j.is_string())
      for (const auto& c : choices)
        if (j.as_string() == token(c)) return c;
    std::string allowed;
    for (const auto& c : choices) {
      if (!allowed.empty()) allowed += '|';
      allowed += token(c);
    }
    throw ConfigError(sub(key),
                      "expected one of " + allowed + ", got " + describe(j));
  }
};

class Writer {
 public:
  explicit Writer(JsonWriter& w) : w_(w) {}

  void put(const Vec3& v) {
    w_.begin_array();
    w_.value(v.x);
    w_.value(v.y);
    w_.value(v.z);
    w_.end_array();
  }

  template <typename T, typename Fields>
  void put(const T& v, Fields fields) {
    w_.begin_object();
    fields(*this, v);
    w_.end_object();
  }

  void number(const std::string& key, double v, double = 0, double = 0,
              bool = false) {
    leaf(key, v);
  }
  void int_field(const std::string& key, int v, long long) { leaf(key, v); }
  void size_field(const std::string& key, std::size_t v, long long) {
    leaf(key, v);
  }
  void seed_field(const std::string& key, std::uint64_t v) {
    leaf(key, static_cast<unsigned long long>(v));
  }
  void boolean(const std::string& key, bool v) { leaf(key, v); }
  void string_field(const std::string& key, const std::string& v) {
    leaf(key, v);
  }

  template <typename E>
  void enumeration(const std::string& key, E v, const EnumTable<E>& table) {
    leaf(key, table_name(table, v));
  }

  template <typename Names>
  void one_of(const std::string& key, const std::string& v, Names) {
    leaf(key, v);
  }

  void vec3(const std::string& key, const Vec3& v) {
    w_.key(key);
    put(v);
  }

  template <typename T, typename Fields>
  void object(const std::string& key, const T& v, Fields fields) {
    w_.key(key);
    put(v, fields);
  }

  template <typename T, typename... Fields>
  void array(const std::string& key, const std::vector<T>& items,
             Fields... fields) {
    w_.key(key);
    w_.begin_array();
    for (const T& item : items) put(item, fields...);
    w_.end_array();
  }

 private:
  template <typename T>
  void leaf(const std::string& key, const T& v) {
    w_.key(key);
    w_.value(v);
  }

  JsonWriter& w_;
};

// ---- field lists (echo order == DESIGN.md §11 schema) ----

constexpr auto aabb_fields = [](auto& f, auto& b) {
  f.vec3("lo", b.lo);
  f.vec3("hi", b.hi);
};

constexpr auto scenario_fields = [](auto& f, auto& s) {
  f.size_field("n", s.n, 1);
  f.number("m_side", s.m_side, 0.0, kInf, /*lo_open=*/true);
  f.number("initial_energy", s.initial_energy, 0.0);
  f.number("energy_heterogeneity", s.energy_heterogeneity, 0.0, 1.0);
  f.enumeration("bs", s.bs, bs_table());
};

constexpr auto radio_fields = [](auto& f, auto& r) {
  f.number("e_elec", r.e_elec, 0.0);
  f.number("e_da", r.e_da, 0.0);
  f.number("eps_fs", r.eps_fs, 0.0);
  // eps_mp feeds the d0 = sqrt(eps_fs / eps_mp) crossover: must stay > 0.
  f.number("eps_mp", r.eps_mp, 0.0, kInf, /*lo_open=*/true);
};

constexpr auto link_fields = [](auto& f, auto& l) {
  f.number("d_ref", l.d_ref, 0.0, kInf, /*lo_open=*/true);
  f.number("p_floor", l.p_floor, 0.0, 1.0);
  f.number("bs_reliability_factor", l.bs_reliability_factor, 0.0, 1.0);
};

constexpr auto mobility_fields = [](auto& f, auto& m) {
  f.enumeration("kind", m.kind, mobility_table());
  f.number("speed", m.speed, 0.0);
  f.number("arrival_tolerance", m.arrival_tolerance, 0.0);
};

constexpr auto audit_fields = [](auto& f, auto& a) {
  f.boolean("enabled", a.enabled);
  f.boolean("throw_on_violation", a.throw_on_violation);
};

constexpr auto trace_fields = [](auto& f, auto& t) {
  f.boolean("record", t.record);
  f.boolean("stop_at_first_death", t.stop_at_first_death);
};

constexpr auto fault_event_fields = [](auto& f, auto& e) {
  f.enumeration("kind", e.kind, fault_kind_table());
  f.int_field("round", e.round, 0);
  f.int_field("node", e.node, -1);
  f.int_field("duration", e.duration, 0);
  f.number("severity", e.severity, 0.0, 1.0);
  f.boolean("permanent", e.permanent);
  f.object("region", e.region, aabb_fields);
};

constexpr auto fault_plan_fields = [](auto& f, auto& p) {
  f.array("events", p.events, fault_event_fields);
};

constexpr auto hazards_fields = [](auto& f, auto& h) {
  f.number("crash_per_node", h.crash_per_node, 0.0, 1.0);
  f.number("stun_per_node", h.stun_per_node, 0.0, 1.0);
  f.int_field("stun_rounds", h.stun_rounds, 0);
  f.number("fade_per_node", h.fade_per_node, 0.0, 1.0);
  f.number("fade_fraction", h.fade_fraction, 0.0, 1.0);
  f.number("degrade_episode", h.degrade_episode, 0.0, 1.0);
  f.int_field("degrade_rounds", h.degrade_rounds, 0);
  f.number("degrade_factor", h.degrade_factor, 0.0, 1.0);
  f.number("bs_outage", h.bs_outage, 0.0, 1.0);
  f.int_field("bs_outage_rounds", h.bs_outage_rounds, 0);
};

constexpr auto fault_fields = [](auto& f, auto& c) {
  f.boolean("enabled", c.enabled);
  f.seed_field("seed", c.seed);
  f.object("plan", c.plan, fault_plan_fields);
  f.object("hazards", c.hazards, hazards_fields);
};

constexpr auto telemetry_fields = [](auto& f, auto& t) {
  f.boolean("enabled", t.enabled);
  f.enumeration("sink", t.sink, sink_table());
  f.string_field("events_path", t.events_path);
  f.size_field("ring_capacity", t.ring_capacity, 1);
  f.boolean("per_packet_events", t.per_packet_events);
  f.boolean("trace_phases", t.trace_phases);
  f.string_field("trace_path", t.trace_path);
  f.string_field("metrics_path", t.metrics_path);
};

constexpr auto mac_fields = [](auto& f, auto& m) {
  f.boolean("enabled", m.enabled);
  f.seed_field("seed", m.seed);
  f.int_field("airtime_subslots", m.airtime_subslots, 1);
  f.number("cca_range", m.cca_range, 0.0, kInf, /*lo_open=*/true);
  // A capture ratio below 1 would let a frame "capture" over interferers
  // louder than itself.
  f.number("capture_ratio", m.capture_ratio, 1.0);
  f.int_field("max_retries", m.max_retries, 0);
  f.int_field("cw_min", m.cw_min, 1);
  f.int_field("cw_max", m.cw_max, 1);
  f.number("duty_cycle", m.duty_cycle, 0.0, 1.0, /*lo_open=*/true);
  f.number("idle_j_per_subslot", m.idle_j_per_subslot, 0.0);
};

constexpr auto obstacle_fields = [](auto& f, auto& o) {
  f.object("box", o.box, aabb_fields);
  f.number("extra_atten", o.extra_atten, 0.0);
};

constexpr auto terrain_fields = [](auto& f, auto& t) {
  f.boolean("enabled", t.enabled);
  f.number("amplitude_frac", t.amplitude_frac, 0.0);
  f.number("base_frac", t.base_frac, 0.0, 1.0);
};

constexpr auto water_fields = [](auto& f, auto& w) {
  f.boolean("enabled", w.enabled);
  f.number("surface_frac", w.surface_frac, 0.0, 1.0);
  f.number("alpha_per_unit", w.alpha_per_unit, 0.0);
  f.number("amp_depth_scale", w.amp_depth_scale, 0.0);
};

constexpr auto env_harvest_fields = [](auto& f, auto& h) {
  f.number("per_round", h.per_round, 0.0);
  f.number("depth_decay", h.depth_decay, 0.0);
  f.number("min_factor", h.min_factor, 0.0, 1.0);
};

constexpr auto env_fields = [](auto& f, auto& e) {
  f.boolean("enabled", e.enabled);
  f.number("atten_per_unit", e.atten_per_unit, 0.0);
  f.number("sever_depth", e.sever_depth, 0.0);
  f.array("obstacles", e.obstacles, obstacle_fields);
  f.object("terrain", e.terrain, terrain_fields);
  f.object("water", e.water, water_fields);
  f.object("harvest", e.harvest, env_harvest_fields);
};

constexpr auto exec_fields = [](auto& f, auto& e) {
  f.int_field("shards", e.shards, 1);
};

constexpr auto sim_fields = [](auto& f, auto& s) {
  f.int_field("rounds", s.rounds, 1);
  f.int_field("slots_per_round", s.slots_per_round, 1);
  f.number("mean_interarrival", s.mean_interarrival);
  f.number("packet_bits", s.packet_bits, 0.0, kInf, /*lo_open=*/true);
  f.size_field("queue_capacity", s.queue_capacity, 1);
  f.int_field("service_per_slot", s.service_per_slot, 0);
  f.number("compression", s.compression, 0.0, 1.0);
  f.enumeration("aggregation", s.aggregation, aggregation_table());
  f.number("death_line", s.death_line);
  f.int_field("max_retries", s.max_retries, 0);
  f.object("radio", s.radio, radio_fields);
  f.object("link", s.link, link_fields);
  f.object("mobility", s.mobility, mobility_fields);
  f.number("harvest_per_round", s.harvest_per_round, 0.0);
  f.number("idle_listen_j_per_slot", s.idle_listen_j_per_slot, 0.0);
  f.object("audit", s.audit, audit_fields);
  f.object("trace", s.trace, trace_fields);
  f.object("fault", s.fault, fault_fields);
  f.object("telemetry", s.telemetry, telemetry_fields);
  f.object("mac", s.mac, mac_fields);
  f.object("env", s.env, env_fields);
  f.object("exec", s.exec, exec_fields);
};

constexpr auto qlec_fields = [](auto& f, auto& q) {
  f.number("gamma", q.gamma, 0.0, 1.0);
  f.number("alpha1", q.alpha1);
  f.number("alpha2", q.alpha2);
  f.number("beta1", q.beta1);
  f.number("beta2", q.beta2);
  f.number("compression", q.compression, 0.0, 1.0);
  f.number("g", q.g, 0.0);
  f.number("l", q.l, 0.0);
  f.number("epsilon", q.epsilon, 0.0, 1.0);
  // The *_scale knobs use <= 0 as a "derive from the deployment" sentinel,
  // so any finite value is legal.
  f.number("x_scale", q.x_scale);
  f.number("y_scale", q.y_scale);
  f.number("y_scale_bs", q.y_scale_bs);
  f.number("x_bs", q.x_bs);
  f.int_field("total_rounds", q.total_rounds, 1);
  f.boolean("use_energy_threshold", q.use_energy_threshold);
  f.boolean("reduce_redundancy", q.reduce_redundancy);
  f.boolean("top_up_to_k", q.top_up_to_k);
  f.number("hello_bits", q.hello_bits, 0.0);
  f.int_field("force_k", q.force_k, 0);
};

constexpr auto controller_fields = [](auto& f, auto& c) {
  f.enumeration("kind", c.kind, controller_kind_table());
  f.number("alpha", c.alpha, 0.0, 1.0);
  f.number("gamma", c.gamma, 0.0, 1.0);
  f.number("epsilon", c.epsilon, 0.0, 1.0);
};

constexpr auto protocol_fields = [](auto& f, auto& p) {
  f.one_of("name", p.name, protocol_names);
  f.object("qlec", p.qlec, qlec_fields);
  f.size_field("k", p.k, 0);
  f.int_field("fcm_levels", p.fcm_levels, 1);
  f.number("death_line", p.death_line);
  f.number("hello_bits", p.hello_bits, 0.0);
  f.object("radio", p.radio, radio_fields);
  f.enumeration("sector_mode", p.sector_mode, sector_mode_table());
  f.object("controller", p.controller, controller_fields);
};

constexpr auto trajectory_fields = [](auto& f, auto& t) {
  f.enumeration("kind", t.kind, trajectory_table());
  f.array("waypoints", t.waypoints);
  f.number("speed", t.speed, 0.0);
  f.boolean("loop", t.loop);
  f.vec3("orbit_center", t.orbit_center);
  f.number("orbit_radius", t.orbit_radius, 0.0);
  f.int_field("orbit_period", t.orbit_period, 1);
};

constexpr auto bs_fields = [](auto& f, auto& t) {
  f.object("trajectory", t, trajectory_fields);
};

constexpr auto experiment_fields = [](auto& f, auto& c) {
  f.object("scenario", c.scenario, scenario_fields);
  f.object("sim", c.sim, sim_fields);
  f.object("protocol", c.protocol, protocol_fields);
  f.size_field("seeds", c.seeds, 1);
  f.seed_field("base_seed", c.base_seed);
  f.enumeration("deployment", c.deployment, deployment_table());
  // The mobile-sink block rides at the top level (it configures the BS,
  // not a per-node simulation knob) but stores into sim.bs_trajectory.
  f.object("bs", c.sim.bs_trajectory, bs_fields);
};

}  // namespace

ConfigError::ConfigError(std::string path, const std::string& problem)
    : std::runtime_error(path.empty() ? problem : path + ": " + problem),
      path_(std::move(path)) {}

const char* bs_placement_name(BsPlacement b) noexcept {
  return table_name(bs_table(), b);
}

const char* aggregation_name(Aggregation a) noexcept {
  return table_name(aggregation_table(), a);
}

const char* mobility_kind_name(MobilityKind k) noexcept {
  return table_name(mobility_table(), k);
}

const char* telemetry_sink_name(obs::TelemetryOptions::Sink s) noexcept {
  return table_name(sink_table(), s);
}

void write_experiment(JsonWriter& w, const ExperimentConfig& cfg) {
  Writer(w).put(cfg, experiment_fields);
}

std::string experiment_to_json(const ExperimentConfig& cfg) {
  JsonWriter w;
  write_experiment(w, cfg);
  return w.str();
}

ExperimentConfig experiment_from_json(const JsonValue& v,
                                      const std::string& path) {
  ExperimentConfig out;
  Reader::bind(v, path, out, experiment_fields);
  return out;
}

ExperimentConfig parse_experiment(const std::string& text) {
  std::string error;
  const std::optional<JsonValue> doc = parse_json(text, &error);
  if (!doc) throw ConfigError("", "malformed JSON: " + error);
  return experiment_from_json(*doc);
}

}  // namespace qlec::config
