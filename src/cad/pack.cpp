#include "cad/pack.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace afpga::cad {

using base::check;

namespace {

void add_unique(std::vector<NetId>& v, NetId n) {
    if (std::find(v.begin(), v.end(), n) == v.end()) v.push_back(n);
}

}  // namespace

std::vector<NetId> Cluster::produced(const MappedDesign& md) const {
    std::vector<NetId> out;
    for (std::size_t li : le_indices)
        for (NetId s : md.les[li].output_signals()) add_unique(out, s);
    if (pde_index) add_unique(out, md.pdes[*pde_index].output);
    return out;
}

std::vector<NetId> Cluster::external_inputs(const MappedDesign& md) const {
    const std::vector<NetId> made = produced(md);
    std::vector<NetId> in;
    auto consider = [&](NetId s) {
        if (std::find(made.begin(), made.end(), s) != made.end()) return;
        if (md.constant_signals.count(s)) return;  // IM constants, not pins
        add_unique(in, s);
    };
    for (std::size_t li : le_indices)
        for (NetId s : md.les[li].input_signals()) consider(s);
    if (pde_index) consider(md.pdes[*pde_index].input);
    return in;
}

std::unordered_map<NetId, std::vector<std::size_t>> PackedDesign::build_consumers(
    const MappedDesign& md) const {
    std::unordered_map<NetId, std::vector<std::size_t>> consumers;
    auto add = [&consumers](NetId s, std::size_t cluster) {
        auto& v = consumers[s];
        if (std::find(v.begin(), v.end(), cluster) == v.end()) v.push_back(cluster);
    };
    for (std::size_t li = 0; li < md.les.size(); ++li)
        for (NetId s : md.les[li].input_signals()) add(s, cluster_of_le[li]);
    for (std::size_t pi = 0; pi < md.pdes.size(); ++pi)
        add(md.pdes[pi].input, cluster_of_pde[pi]);
    return consumers;
}

PackedDesign pack(const MappedDesign& md, const core::ArchSpec& arch, const PackOptions& opts) {
    PackedDesign pd;
    const std::size_t num_les = md.les.size();
    pd.cluster_of_le.assign(num_les, SIZE_MAX);
    pd.cluster_of_pde.assign(md.pdes.size(), SIZE_MAX);

    // Every LE's signal lists, built once.
    std::vector<std::vector<NetId>> ins(num_les);
    std::vector<std::vector<NetId>> outs(num_les);
    std::size_t num_signals = 0;
    auto see = [&num_signals](NetId s) { num_signals = std::max(num_signals, s.index() + 1); };
    for (std::size_t li = 0; li < num_les; ++li) {
        ins[li] = md.les[li].input_signals();
        outs[li] = md.les[li].output_signals();
        for (NetId s : ins[li]) see(s);
        for (NetId s : outs[li]) see(s);
    }
    for (const PdeInst& p : md.pdes) {
        see(p.input);
        see(p.output);
    }

    // Per-signal flags: fixed ones first, then the sets of the cluster being
    // grown (its external inputs and what it produces), updated as LEs join.
    enum : std::uint8_t { kConst = 1, kLeaves = 2, kIn = 4, kMade = 8 };
    std::vector<std::uint8_t> flag(num_signals, 0);
    std::vector<std::uint32_t> fanout(num_signals, 0);  // LEs consuming the signal
    for (const auto& [s, value] : md.constant_signals)
        if (s.index() < num_signals) flag[s.index()] |= kConst;  // IM constants, not pins
    for (const auto& [name, s] : md.primary_outputs)
        if (s.index() < num_signals) flag[s.index()] |= kLeaves;
    for (const PdeInst& p : md.pdes) flag[p.input.index()] |= kLeaves;  // refined after PDE attach
    for (const auto& in : ins)
        for (NetId s : in) ++fanout[s.index()];
    auto has = [&flag](NetId s, std::uint8_t f) { return (flag[s.index()] & f) != 0; };

    // The LEs consuming and producing each signal (ascending), so a cluster
    // visits only the candidates it shares a signal with.
    auto index_by_signal = [&](const std::vector<std::vector<NetId>>& lists) {
        std::vector<std::size_t> first(num_signals + 1, 0);
        for (const auto& l : lists)
            for (NetId s : l) ++first[s.index() + 1];
        for (std::size_t i = 0; i < num_signals; ++i) first[i + 1] += first[i];
        std::vector<std::size_t> les(first.back());
        std::vector<std::size_t> fill(first.begin(), first.end() - 1);
        for (std::size_t li = 0; li < lists.size(); ++li)
            for (NetId s : lists[li]) les[fill[s.index()]++] = li;
        return std::pair{std::move(first), std::move(les)};
    };
    const auto [consumer_first, consumers] = index_by_signal(ins);
    const auto [producer_first, producers] = index_by_signal(outs);

    std::vector<std::size_t> members;
    std::vector<NetId> made;  // produced signals, deduplicated
    std::vector<NetId> ext;   // external inputs: member inputs neither made nor constant

    auto join = [&](std::size_t li) {
        members.push_back(li);
        for (NetId s : outs[li]) {
            if (has(s, kMade)) continue;
            flag[s.index()] |= kMade;
            made.push_back(s);
            if (has(s, kIn)) {
                flag[s.index()] &= static_cast<std::uint8_t>(~kIn);
                std::erase(ext, s);
            }
        }
        for (NetId s : ins[li]) {
            if (has(s, kConst | kMade | kIn)) continue;
            flag[s.index()] |= kIn;
            ext.push_back(s);
        }
    };

    // Would the cluster plus `li` fit the PLB's LE count and pin budget?
    auto legal_with = [&](std::size_t li) {
        if (members.size() + 1 > arch.les_per_plb) return false;
        const auto& li_out = outs[li];
        auto first_out = [&li_out](std::size_t k) {
            return std::find(li_out.begin(), li_out.begin() + static_cast<std::ptrdiff_t>(k),
                             li_out[k]) == li_out.begin() + static_cast<std::ptrdiff_t>(k);
        };
        std::size_t n_in = ext.size();
        for (std::size_t k = 0; k < li_out.size(); ++k)
            if (has(li_out[k], kIn) && first_out(k)) --n_in;
        for (NetId s : ins[li])
            if (!has(s, kConst | kMade | kIn) &&
                std::find(li_out.begin(), li_out.end(), s) == li_out.end())
                ++n_in;
        if (n_in > arch.plb_inputs) return false;
        // Conservative output bound: count every produced signal that has any
        // consumer outside or is a PO (a superset of what finally leaves).
        auto needed = [&](NetId s) {
            if (has(s, kLeaves)) return true;
            std::uint32_t inside = 0;
            for (std::size_t m : members)
                inside += std::find(ins[m].begin(), ins[m].end(), s) != ins[m].end();
            inside += std::find(ins[li].begin(), ins[li].end(), s) != ins[li].end();
            return fanout[s.index()] > inside;
        };
        std::size_t n_out = 0;
        for (NetId s : made) n_out += needed(s);
        for (std::size_t k = 0; k < li_out.size(); ++k)
            if (!has(li_out[k], kMade) && first_out(k)) n_out += needed(li_out[k]);
        return n_out <= arch.plb_outputs;
    };

    auto affinity = [&](std::size_t li) {
        std::size_t shared = 0;
        for (NetId s : ins[li]) {
            if (has(s, kIn)) ++shared;
            if (has(s, kMade)) shared += 2;
        }
        for (NetId s : outs[li])
            if (has(s, kIn)) shared += 2;
        return shared;
    };

    // The LE clusters' final signal sets, for the PDE attach below.
    std::vector<std::vector<NetId>> cluster_made;
    std::vector<std::vector<NetId>> cluster_ext;
    std::vector<bool> assigned(num_les, false);
    std::vector<std::size_t> sharing;  // unassigned LEs with affinity > 0
    auto add_sharing = [&](const std::vector<std::size_t>& first,
                           const std::vector<std::size_t>& les, NetId s) {
        for (std::size_t k = first[s.index()]; k < first[s.index() + 1]; ++k)
            if (!assigned[les[k]]) sharing.push_back(les[k]);
    };
    for (std::size_t seed = 0; seed < num_les; ++seed) {
        if (assigned[seed]) continue;
        check(legal_with(seed), "pack: single LE exceeds PLB pin budget");
        join(seed);
        assigned[seed] = true;
        while (members.size() < arch.les_per_plb) {
            // The join is the legal candidate of highest affinity, ties to the
            // lowest index. Every LE sharing no signal scores the same, so
            // when no sharing LE is legal the lowest legal index wins.
            std::size_t best = SIZE_MAX;
            if (opts.affinity_clustering) {
                sharing.clear();
                for (NetId s : ext) {
                    add_sharing(consumer_first, consumers, s);
                    add_sharing(producer_first, producers, s);
                }
                for (NetId s : made) add_sharing(consumer_first, consumers, s);
                std::sort(sharing.begin(), sharing.end());
                sharing.erase(std::unique(sharing.begin(), sharing.end()), sharing.end());
                std::size_t best_aff = 0;
                for (std::size_t li : sharing) {
                    const std::size_t aff = affinity(li);
                    if (aff > best_aff && legal_with(li)) {
                        best_aff = aff;
                        best = li;
                    }
                }
            }
            for (std::size_t li = seed + 1; li < num_les && best == SIZE_MAX; ++li)
                if (!assigned[li] && (!opts.affinity_clustering || legal_with(li))) best = li;
            if (best == SIZE_MAX || !legal_with(best)) break;
            join(best);
            assigned[best] = true;
        }
        for (std::size_t li : members) pd.cluster_of_le[li] = pd.clusters.size();
        Cluster c;
        c.le_indices = members;
        pd.clusters.push_back(std::move(c));
        for (NetId s : made) flag[s.index()] &= static_cast<std::uint8_t>(~kMade);
        for (NetId s : ext) flag[s.index()] &= static_cast<std::uint8_t>(~kIn);
        cluster_made.push_back(std::move(made));
        cluster_ext.push_back(std::move(ext));
        members.clear();
        made.clear();
        ext.clear();
    }

    // Attach PDEs: prefer the cluster producing the PDE's input signal, then
    // any cluster consuming its output, then a fresh cluster.
    for (std::size_t pi = 0; pi < md.pdes.size(); ++pi) {
        const PdeInst& p = md.pdes[pi];
        // External inputs of LE cluster `ci` once it also holds the PDE,
        // whose output then counts as produced there.
        auto inputs_with_pde = [&](std::size_t ci) {
            const auto& in = cluster_ext[ci];
            const auto& mine = cluster_made[ci];
            std::size_t n = in.size();
            if (std::find(in.begin(), in.end(), p.output) != in.end()) --n;
            if (!has(p.input, kConst) && p.input != p.output &&
                std::find(mine.begin(), mine.end(), p.input) == mine.end() &&
                std::find(in.begin(), in.end(), p.input) == in.end())
                ++n;
            return n;
        };
        std::size_t chosen = SIZE_MAX;
        const std::size_t in = p.input.index();
        for (std::size_t k = producer_first[in]; k < producer_first[in + 1]; ++k) {
            const std::size_t ci = pd.cluster_of_le[producers[k]];
            if (!pd.clusters[ci].pde_index && inputs_with_pde(ci) <= arch.plb_inputs)
                chosen = std::min(chosen, ci);
        }
        for (std::size_t ci = 0; ci < pd.clusters.size() && chosen == SIZE_MAX; ++ci) {
            if (pd.clusters[ci].pde_index) continue;
            if (inputs_with_pde(ci) <= arch.plb_inputs) chosen = ci;
        }
        if (chosen == SIZE_MAX) {
            Cluster c;
            c.pde_index = pi;
            chosen = pd.clusters.size();
            pd.clusters.push_back(std::move(c));
        } else {
            pd.clusters[chosen].pde_index = pi;
        }
        pd.cluster_of_pde[pi] = chosen;
    }
    return pd;
}

}  // namespace afpga::cad
