#include "cad/flow_stage.hpp"

#include "base/json.hpp"

namespace afpga::cad {

const double* StageReport::metric(std::string_view name) const {
    for (const auto& [k, v] : metrics)
        if (k == name) return &v;
    return nullptr;
}

const StageReport* FlowTelemetry::stage(std::string_view name) const {
    for (const StageReport& s : stages)
        if (s.stage == name) return &s;
    return nullptr;
}

std::string FlowTelemetry::to_json() const {
    base::JsonWriter w;
    w.begin_object();
    w.key("total_ms").value(total_ms);
    w.key("stages").begin_array();
    for (const StageReport& s : stages) {
        w.begin_object();
        w.key("stage").value(s.stage);
        w.key("wall_ms").value(s.wall_ms);
        w.key("iterations").value(s.iterations);
        if (!s.cache_key.empty()) {
            w.key("key").value(s.cache_key);
            w.key("cache_hit").value(s.cache_hit == 1);
        }
        if (!s.cost_trajectory.empty()) {
            w.key("cost_trajectory").begin_array();
            for (double c : s.cost_trajectory) w.value(c);
            w.end_array();
        }
        for (const auto& [k, v] : s.metrics) w.key(k).value(v);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace afpga::cad
