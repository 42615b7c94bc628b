#include "cad/place_model.hpp"

#include <algorithm>
#include <unordered_map>

#include "base/check.hpp"

namespace afpga::cad {

using base::check;

PlaceModel::PlaceModel(const PackedDesign& pd, const MappedDesign& md,
                       const core::ArchSpec& a)
    : arch(&a), geom(a) {
    arch->validate();
    const std::uint32_t W = arch->width;
    const std::uint32_t H = arch->height;
    check(pd.clusters.size() <= std::size_t{W} * H,
          "place: design needs " + std::to_string(pd.clusters.size()) + " PLBs but fabric has " +
              std::to_string(W * H));
    check(md.primary_inputs.size() + md.primary_outputs.size() <= geom.num_pads(),
          "place: not enough I/O pads");
    num_clusters = pd.clusters.size();

    // --- entity table ---------------------------------------------------------
    for (std::size_t ci = 0; ci < pd.clusters.size(); ++ci)
        entities.push_back({PlaceEntity::Kind::Cluster, ci, SIZE_MAX});
    for (std::size_t i = 0; i < md.primary_inputs.size(); ++i) {
        io_entity_ids.push_back(entities.size());
        entities.push_back({PlaceEntity::Kind::Pi, i, io_entity_ids.size() - 1});
    }
    for (std::size_t i = 0; i < md.primary_outputs.size(); ++i) {
        io_entity_ids.push_back(entities.size());
        entities.push_back({PlaceEntity::Kind::Po, i, io_entity_ids.size() - 1});
    }

    // --- nets ------------------------------------------------------------------
    // NOTE: net order falls out of unordered_map iteration below. That order
    // is deterministic for a given libstdc++ + insertion history, and the
    // polish's move sequence (hence every placement bit) depends on it —
    // keep it that way.
    const auto consumers = pd.build_consumers(md);
    std::unordered_map<NetId, std::size_t> pi_entity;  // signal -> entity
    for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
        pi_entity[md.primary_inputs[i].second] = pd.clusters.size() + i;
    std::unordered_map<NetId, std::vector<std::size_t>> po_entities;
    for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
        po_entities[md.primary_outputs[i].second].push_back(pd.clusters.size() +
                                                            md.primary_inputs.size() + i);
    std::unordered_map<NetId, std::size_t> producer_cluster;
    for (std::size_t ci = 0; ci < pd.clusters.size(); ++ci)
        for (NetId s : pd.clusters[ci].produced(md)) producer_cluster[s] = ci;

    std::unordered_map<NetId, PlaceNet> net_by_signal;
    auto net_for = [&](NetId s) -> PlaceNet& { return net_by_signal[s]; };
    for (const auto& [s, clist] : consumers) {
        PlaceNet& n = net_for(s);
        for (std::size_t c : clist)
            if (std::find(n.entities.begin(), n.entities.end(), c) == n.entities.end())
                n.entities.push_back(c);
    }
    for (const auto& [s, ents] : po_entities)
        for (std::size_t e : ents) net_for(s).entities.push_back(e);
    for (auto& [s, n] : net_by_signal) {
        if (md.constant_signals.count(s)) {
            n.entities.clear();  // constants are materialised inside the IM
            continue;
        }
        const auto pit = pi_entity.find(s);
        if (pit != pi_entity.end()) {
            n.entities.push_back(pit->second);
        } else {
            const auto dit = producer_cluster.find(s);
            check(dit != producer_cluster.end(), "place: undriven signal in netlist");
            if (std::find(n.entities.begin(), n.entities.end(), dit->second) ==
                n.entities.end())
                n.entities.push_back(dit->second);
        }
    }
    for (auto& [s, n] : net_by_signal)
        if (n.entities.size() >= 2) nets.push_back(std::move(n));
    nets_of_entity.assign(entities.size(), {});
    for (std::size_t ni = 0; ni < nets.size(); ++ni)
        for (std::size_t eid : nets[ni].entities) nets_of_entity[eid].push_back(ni);

    // --- pad geometry (pure function of the fabric; tabled once) ---------------
    pad_pts.resize(geom.num_pads());
    for (std::uint32_t p = 0; p < pad_pts.size(); ++p) {
        const core::IobCoord io = geom.pad_iob(p);
        switch (io.side) {
            case core::Side::Bottom: pad_pts[p] = {io.offset + 1.0, 0.0}; break;
            case core::Side::Top: pad_pts[p] = {io.offset + 1.0, arch->height + 1.0}; break;
            case core::Side::Left: pad_pts[p] = {0.0, io.offset + 1.0}; break;
            case core::Side::Right: pad_pts[p] = {arch->width + 1.0, io.offset + 1.0}; break;
        }
    }
}

}  // namespace afpga::cad
