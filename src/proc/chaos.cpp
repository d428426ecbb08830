#include "proc/chaos.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace neptune::proc {

const char* to_string(ChaosAction::Kind kind) {
  switch (kind) {
    case ChaosAction::Kind::kKill: return "kill";
    case ChaosAction::Kind::kStop: return "stop";
    case ChaosAction::Kind::kCont: return "cont";
    case ChaosAction::Kind::kPartition: return "partition";
  }
  return "?";
}

namespace {

ChaosAction::Kind kind_from_string(const std::string& s) {
  if (s == "kill") return ChaosAction::Kind::kKill;
  if (s == "stop") return ChaosAction::Kind::kStop;
  if (s == "cont") return ChaosAction::Kind::kCont;
  if (s == "partition") return ChaosAction::Kind::kPartition;
  throw JsonError("chaos plan: unknown action '" + s + "'");
}

}  // namespace

ChaosPlan ChaosPlan::from_json(const JsonValue& doc, size_t total_resources) {
  ChaosPlan plan;
  plan.seed = static_cast<uint64_t>(doc.number_or("seed", 1));
  if (doc.contains("actions")) {
    for (const JsonValue& a : doc.at("actions").as_array()) {
      ChaosAction act;
      act.kind = kind_from_string(a.at("action").as_string());
      act.resource = static_cast<size_t>(a.number_or("resource", 0));
      act.at_ms = static_cast<int64_t>(a.number_or("at_ms", -1));
      act.at_events = static_cast<uint64_t>(a.number_or("at_events", 0));
      act.duration_ms = static_cast<int64_t>(a.number_or("duration_ms", 0));
      if (act.at_ms < 0 && act.at_events == 0)
        throw JsonError("chaos plan: action needs at_ms or at_events");
      if (total_resources > 0 && act.resource >= total_resources)
        throw JsonError("chaos plan: resource " + std::to_string(act.resource) +
                        " out of range for " + std::to_string(total_resources) + " resources");
      plan.actions.push_back(act);
    }
  }
  if (doc.contains("random")) {
    const JsonValue& r = doc.at("random");
    uint64_t kills = static_cast<uint64_t>(r.number_or("kills", 0));
    int64_t lo = 100, hi = 1000;
    if (r.contains("window_ms")) {
      const JsonArray& w = r.at("window_ms").as_array();
      if (w.size() != 2) throw JsonError("chaos plan: random.window_ms must be [lo, hi]");
      lo = static_cast<int64_t>(w[0].as_number());
      hi = static_cast<int64_t>(w[1].as_number());
    }
    if (hi < lo) throw JsonError("chaos plan: random.window_ms hi < lo");
    Xoshiro256 rng(plan.seed);
    for (uint64_t i = 0; i < kills; ++i) {
      ChaosAction act;
      act.kind = ChaosAction::Kind::kKill;
      act.resource = total_resources > 0 ? static_cast<size_t>(rng.next_below(total_resources))
                                         : 0;
      act.at_ms = lo + static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(hi - lo + 1)));
      plan.actions.push_back(act);
    }
  }
  return plan;
}

ChaosPlan ChaosPlan::load(const std::string& path, size_t total_resources) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open chaos plan: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(JsonValue::parse(buf.str()), total_resources);
}

std::vector<ChaosAction*> ChaosController::due(int64_t elapsed_ms, uint64_t generation,
                                               uint64_t generation_events) {
  if (generation != generation_) earlier_events_ += generation_events_;
  generation_ = generation;
  generation_events_ = generation_events;
  const uint64_t events = earlier_events_ + generation_events;
  std::vector<ChaosAction*> out;
  for (ChaosAction& a : plan_.actions) {
    if (a.fired) continue;
    const bool kill = a.kind == ChaosAction::Kind::kKill;
    if (kill && killed_generation_ == generation) continue;
    bool time_due = a.at_ms >= 0 && elapsed_ms >= a.at_ms;
    bool event_due = a.at_events > 0 && events >= a.at_events;
    if (time_due || event_due) {
      a.fired = true;
      ++fired_;
      if (kill) killed_generation_ = generation;
      out.push_back(&a);
    }
  }
  return out;
}

}  // namespace neptune::proc
