#include "cad/place_cost.hpp"

#include <algorithm>
#include <limits>

#include "base/check.hpp"

namespace afpga::cad {

using base::check;

namespace {

/// Exact O(1) bounding-interval update for one coordinate axis: a pin moves
/// from `o` to `n`. Returns false when the interval cannot be updated without
/// rescanning the net (the unique boundary occupant retreated inward).
bool update_axis(std::int32_t o, std::int32_t n, std::int32_t& mn, std::int32_t& mx,
                 std::uint16_t& nmn, std::uint16_t& nmx) {
    if (o == n) return true;
    // min side: remove o, add n
    if (n < mn) {
        mn = n;  // strictly below everything else, whatever o contributed
        nmn = 1;
    } else if (n == mn) {
        if (o != mn) ++nmn;
    } else if (o == mn) {
        if (nmn == 1) return false;  // the min rises to an unknown value
        --nmn;
    }
    // max side, symmetric
    if (n > mx) {
        mx = n;
        nmx = 1;
    } else if (n == mx) {
        if (o != mx) ++nmx;
    } else if (o == mx) {
        if (nmx == 1) return false;
        --nmx;
    }
    return true;
}

}  // namespace

std::size_t PlaceCostEngine::add_entity(std::int32_t x, std::int32_t y) {
    xs_.push_back(x);
    ys_.push_back(y);
    return xs_.size() - 1;
}

void PlaceCostEngine::add_net(std::vector<std::size_t> entities) {
    check(entities.size() <= kMaxNetPins, "PlaceCostEngine: net has more than 65535 pins");
    for (std::size_t eid : entities) check(eid < xs_.size(), "PlaceCostEngine: bad entity id");
    std::vector<std::size_t> sorted = entities;
    std::sort(sorted.begin(), sorted.end());
    check(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
          "PlaceCostEngine: repeated entity id in net");
    nets_.push_back(std::move(entities));
    sorted_nets_.push_back(std::move(sorted));
}

void PlaceCostEngine::finalize() {
    const std::size_t n_ents = xs_.size();
    // Merge parallel nets: nets over one entity set become one net whose
    // weight counts them, at its first copy's place in the net order and
    // with that copy's pin order. Sorting by the sorted id list, ties by
    // index, puts each group's copies next to each other, first copy
    // first. Nets below two pins never contribute cost and are dropped.
    std::vector<std::uint32_t> order;
    for (std::size_t ni = 0; ni < nets_.size(); ++ni)
        if (nets_[ni].size() >= 2) order.push_back(static_cast<std::uint32_t>(ni));
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        const auto& ka = sorted_nets_[a];
        const auto& kb = sorted_nets_[b];
        return ka != kb ? ka < kb : a < b;
    });
    std::vector<std::uint32_t> copies(nets_.size(), 0);  // first copy -> group size
    for (std::size_t k = 0, first = 0; k < order.size(); ++k) {
        if (sorted_nets_[order[k]] != sorted_nets_[order[first]]) first = k;
        ++copies[order[first]];
    }
    std::vector<std::uint32_t> kept;  // first copies, in net order
    for (std::size_t ni = 0; ni < nets_.size(); ++ni)
        if (copies[ni] != 0) kept.push_back(static_cast<std::uint32_t>(ni));
    const std::size_t n_nets = kept.size();

    net_first_.assign(n_nets + 1, 0);
    weight_.resize(n_nets);
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
        net_first_[ni + 1] = net_first_[ni] + static_cast<std::uint32_t>(nets_[kept[ni]].size());
        weight_[ni] = copies[kept[ni]];
    }
    net_ents_.clear();
    net_ents_.reserve(net_first_.back());
    for (const std::uint32_t ni : kept)
        for (std::size_t eid : nets_[ni]) net_ents_.push_back(static_cast<std::uint32_t>(eid));

    // Entity -> incidence CSR, split by net shape.
    small_first_.assign(n_ents + 1, 0);
    large_first_.assign(n_ents + 1, 0);
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
        const std::uint32_t pins = net_first_[ni + 1] - net_first_[ni];
        auto& first = pins <= kSmallNet ? small_first_ : large_first_;
        for (std::uint32_t i = net_first_[ni]; i < net_first_[ni + 1]; ++i)
            ++first[net_ents_[i] + 1];
    }
    for (std::size_t e = 0; e < n_ents; ++e) {
        small_first_[e + 1] += small_first_[e];
        large_first_[e + 1] += large_first_[e];
    }
    small_.resize(small_first_.back());
    large_.resize(large_first_.back());
    std::vector<std::uint32_t> small_at(small_first_.begin(), small_first_.end() - 1);
    std::vector<std::uint32_t> large_at(large_first_.begin(), large_first_.end() - 1);
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
        const auto net_id = static_cast<std::uint32_t>(ni);
        const std::uint32_t first = net_first_[ni];
        const std::uint32_t last = net_first_[ni + 1];
        if (last - first > kSmallNet) {
            for (std::uint32_t i = first; i < last; ++i) large_[large_at[net_ents_[i]]++] = net_id;
            continue;
        }
        for (std::uint32_t i = first; i < last; ++i) {
            SmallPins& r = small_[small_at[net_ents_[i]]++];
            r.net = net_id;
            r.weight = weight_[ni];
            std::size_t k = 0;
            for (std::uint32_t j = first; j < last; ++j)
                if (j != i) r.other[k++] = net_ents_[j];
            for (; k < kSmallNet - 1; ++k) r.other[k] = r.other[k - 1];
        }
    }
    nets_.clear();  // fully superseded by the CSR arrays
    nets_.shrink_to_fit();
    sorted_nets_.clear();
    sorted_nets_.shrink_to_fit();

    cost_.assign(n_nets, 0);
    boxes_.assign(n_nets, NetBox{});
    for (std::uint32_t ni = 0; ni < n_nets; ++ni) {
        boxes_[ni] = scan_net(ni);
        cost_[ni] = weighted(ni, hpwl(boxes_[ni]));
    }
    net_mark_.assign(n_nets, 0);
    net_slot_.assign(n_nets, 0);
    mark_ = 0;
}

PlaceCostEngine::NetBox PlaceCostEngine::scan_net(std::uint32_t ni) const {
    // Two branchless passes: the extremes, then the pins on each edge.
    NetBox b{std::numeric_limits<std::int32_t>::max(), std::numeric_limits<std::int32_t>::min(),
             std::numeric_limits<std::int32_t>::max(), std::numeric_limits<std::int32_t>::min(),
             0, 0, 0, 0};
    const std::uint32_t first = net_first_[ni];
    const std::uint32_t last = net_first_[ni + 1];
    for (std::uint32_t i = first; i < last; ++i) {
        const std::int32_t x = xs_[net_ents_[i]];
        const std::int32_t y = ys_[net_ents_[i]];
        b.xmin = std::min(b.xmin, x);
        b.xmax = std::max(b.xmax, x);
        b.ymin = std::min(b.ymin, y);
        b.ymax = std::max(b.ymax, y);
    }
    for (std::uint32_t i = first; i < last; ++i) {
        const std::int32_t x = xs_[net_ents_[i]];
        const std::int32_t y = ys_[net_ents_[i]];
        b.n_xmin = static_cast<std::uint16_t>(b.n_xmin + (x == b.xmin));
        b.n_xmax = static_cast<std::uint16_t>(b.n_xmax + (x == b.xmax));
        b.n_ymin = static_cast<std::uint16_t>(b.n_ymin + (y == b.ymin));
        b.n_ymax = static_cast<std::uint16_t>(b.n_ymax + (y == b.ymax));
    }
    return b;
}

double PlaceCostEngine::total_cost() const {
    std::int64_t c = 0;
    for (const std::int64_t nc : cost_) c += nc;
    return static_cast<double>(c);
}

double PlaceCostEngine::recompute_from_scratch() const {
    std::int64_t c = 0;
    for (std::uint32_t ni = 0; ni + 1 < net_first_.size(); ++ni)
        c += weighted(ni, hpwl(scan_net(ni)));
    return static_cast<double>(c);
}

double PlaceCostEngine::eval(std::span<const EntityMove> moves) {
    AFPGA_ASSERT(!moves.empty(), "PlaceCostEngine::eval: empty proposal");
    moves_.clear();
    small_pending_.clear();
    large_pending_.clear();
    if (++mark_ == 0) {  // wrapped: no stale mark may alias the new one
        std::fill(net_mark_.begin(), net_mark_.end(), 0);
        mark_ = 1;
    }

    // Tentative apply: every read below sees the proposal.
    for (const EntityMove& m : moves) {
        AFPGA_ASSERT(m.entity < xs_.size(), "PlaceCostEngine: bad entity id in move");
        const auto e = static_cast<std::uint32_t>(m.entity);
        moves_.push_back({e, m.x, m.y, xs_[e], ys_[e]});
        xs_[e] = m.x;
        ys_[e] = m.y;
    }

    std::int64_t delta = 0;
    for (std::size_t k = 0; k < moves_.size(); ++k) {
        const PendingMove& m = moves_[k];
        // Small nets: min/max over the moved pin and the three recorded
        // others. A net that also holds an earlier mover was already costed.
        for (std::uint32_t i = small_first_[m.entity]; i < small_first_[m.entity + 1]; ++i) {
            const SmallPins& r = small_[i];
            bool seen = false;
            for (std::size_t j = 0; j < k; ++j) {
                const std::uint32_t ej = moves_[j].entity;
                seen |= (r.other[0] == ej) | (r.other[1] == ej) | (r.other[2] == ej);
            }
            if (seen) continue;
            const std::int32_t x0 = xs_[r.other[0]];
            const std::int32_t x1 = xs_[r.other[1]];
            const std::int32_t x2 = xs_[r.other[2]];
            const std::int32_t y0 = ys_[r.other[0]];
            const std::int32_t y1 = ys_[r.other[1]];
            const std::int32_t y2 = ys_[r.other[2]];
            const std::int32_t xmin = std::min(std::min(m.x, x0), std::min(x1, x2));
            const std::int32_t xmax = std::max(std::max(m.x, x0), std::max(x1, x2));
            const std::int32_t ymin = std::min(std::min(m.y, y0), std::min(y1, y2));
            const std::int32_t ymax = std::max(std::max(m.y, y0), std::max(y1, y2));
            const std::int64_t c = std::int64_t{r.weight} * ((xmax - xmin) + (ymax - ymin));
            delta += c - cost_[r.net];
            small_pending_.push_back({r.net, c});
        }
        // Large nets: VPR's per-edge-count update on a copy of the box.
        for (std::uint32_t i = large_first_[m.entity]; i < large_first_[m.entity + 1]; ++i) {
            const std::uint32_t ni = large_[i];
            if (net_mark_[ni] != mark_) {
                net_mark_[ni] = mark_;
                net_slot_[ni] = static_cast<std::uint32_t>(large_pending_.size());
                large_pending_.push_back({ni, false, boxes_[ni]});
            }
            PendingBox& p = large_pending_[net_slot_[ni]];
            if (p.rescan) continue;
            NetBox& b = p.box;
            p.rescan = !update_axis(m.ox, m.x, b.xmin, b.xmax, b.n_xmin, b.n_xmax) ||
                       !update_axis(m.oy, m.y, b.ymin, b.ymax, b.n_ymin, b.n_ymax);
        }
    }
    for (PendingBox& p : large_pending_) {
        if (p.rescan) p.box = scan_net(p.net);
        delta += weighted(p.net, hpwl(p.box)) - cost_[p.net];
    }

    // Restore the committed positions (reverse order, so a repeated entity
    // ends at its committed spot too).
    for (auto it = moves_.rbegin(); it != moves_.rend(); ++it) {
        xs_[it->entity] = it->ox;
        ys_[it->entity] = it->oy;
    }
    return static_cast<double>(delta);
}

void PlaceCostEngine::commit() {
    for (const PendingMove& m : moves_) {
        xs_[m.entity] = m.x;
        ys_[m.entity] = m.y;
    }
    for (const PendingCost& p : small_pending_) cost_[p.net] = p.cost;
    for (const PendingBox& p : large_pending_) {
        boxes_[p.net] = p.box;
        cost_[p.net] = weighted(p.net, hpwl(p.box));
    }
    moves_.clear();
    small_pending_.clear();
    large_pending_.clear();
}

}  // namespace afpga::cad
