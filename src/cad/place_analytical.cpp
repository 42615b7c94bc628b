#include "cad/place_analytical.hpp"

#include <algorithm>
#include <cmath>

namespace afpga::cad {

// HPWL over the fractional (pre-legalization) coordinates.
double fractional_cost(const PlaceModel& model, const std::vector<double>& cx,
                       const std::vector<double>& cy,
                       const std::vector<std::uint32_t>& pad_of_io) {
    double total = 0;
    for (const PlaceNet& net : model.nets) {
        double xmin = 1e18;
        double xmax = -1e18;
        double ymin = 1e18;
        double ymax = -1e18;
        for (std::size_t eid : net.entities) {
            const PlaceEntity& e = model.entities[eid];
            const PlacePt p = e.kind == PlaceEntity::Kind::Cluster
                                  ? PlacePt{cx[e.index], cy[e.index]}
                                  : model.pad_pts[pad_of_io[e.io_slot]];
            xmin = std::min(xmin, p.x);
            xmax = std::max(xmax, p.x);
            ymin = std::min(ymin, p.y);
            ymax = std::max(ymax, p.y);
        }
        total += (xmax - xmin) + (ymax - ymin);
    }
    return total;
}

// Exhaustive-window descent on the true objective (fixed scan orders,
// strict improvement, fixed tie-breaks — see the header for why it must
// run after, not before, the polish anneal). Cluster passes (windowed
// moves/swaps) alternate with pad passes (every pad, plus pad swaps):
// on I/O-heavy designs most of the recoverable wirelength is in the pad
// assignment, which greedy seeding and short polishing leave suboptimal.
void refine_detailed(const PlaceModel& model, std::vector<std::uint32_t>& pad_of_io,
                     std::vector<core::PlbCoord>& loc) {
    const std::uint32_t W = model.arch->width;
    const std::uint32_t H = model.arch->height;
    constexpr int kRadius = 3;
    constexpr int kMaxPasses = 16;
    const std::size_t n = model.num_clusters;
    const std::size_t n_io = model.io_entity_ids.size();
    const std::size_t n_pads = model.pad_pts.size();
    constexpr std::uint32_t kFree = 0xffffffffu;
    std::vector<std::uint32_t> grid(std::size_t{W} * H, kFree);
    auto cell = [&](std::uint32_t gx, std::uint32_t gy) -> std::uint32_t& {
        return grid[std::size_t{gy} * W + gx];
    };
    for (std::size_t i = 0; i < n; ++i) cell(loc[i].x, loc[i].y) = static_cast<std::uint32_t>(i);
    std::vector<std::uint32_t> pad_owner(n_pads, kFree);
    for (std::size_t s = 0; s < n_io; ++s) pad_owner[pad_of_io[s]] = static_cast<std::uint32_t>(s);

    // Cost over the nets touching entity a (and b, when swapping),
    // deduplicated — the only terms a move can change.
    std::vector<std::size_t> touched;
    auto cost_around = [&](std::size_t ea, std::size_t eb) {
        touched.clear();
        touched.insert(touched.end(), model.nets_of_entity[ea].begin(),
                       model.nets_of_entity[ea].end());
        if (eb != SIZE_MAX)
            touched.insert(touched.end(), model.nets_of_entity[eb].begin(),
                           model.nets_of_entity[eb].end());
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
        double c = 0;
        for (std::size_t ni : touched) c += model.net_cost(model.nets[ni], loc, pad_of_io);
        return c;
    };

    for (int pass = 0; pass < kMaxPasses; ++pass) {
        bool improved = false;
        for (std::size_t i = 0; i < n; ++i) {
            const core::PlbCoord from = loc[i];
            const std::uint32_t ty0 =
                from.y > static_cast<std::uint32_t>(kRadius) ? from.y - kRadius : 0;
            const std::uint32_t ty1 = std::min(H - 1, from.y + kRadius);
            const std::uint32_t tx0 =
                from.x > static_cast<std::uint32_t>(kRadius) ? from.x - kRadius : 0;
            const std::uint32_t tx1 = std::min(W - 1, from.x + kRadius);
            double best_delta = -1e-9;  // strict improvement only
            core::PlbCoord best_to{};
            bool have = false;
            for (std::uint32_t ty = ty0; ty <= ty1; ++ty)
                for (std::uint32_t tx = tx0; tx <= tx1; ++tx) {
                    if (tx == from.x && ty == from.y) continue;
                    const std::uint32_t occ = cell(tx, ty);
                    const std::size_t j = occ == kFree ? SIZE_MAX : occ;
                    const double before = cost_around(i, j);
                    loc[i] = {tx, ty};
                    if (j != SIZE_MAX) loc[j] = from;
                    const double delta = cost_around(i, j) - before;
                    loc[i] = from;
                    if (j != SIZE_MAX) loc[j] = {tx, ty};
                    if (delta < best_delta) {
                        best_delta = delta;
                        best_to = {tx, ty};
                        have = true;
                    }
                }
            if (have) {
                const std::uint32_t occ = cell(best_to.x, best_to.y);
                loc[i] = best_to;
                if (occ != kFree) {
                    loc[occ] = from;
                    cell(from.x, from.y) = occ;
                } else {
                    cell(from.x, from.y) = kFree;
                }
                cell(best_to.x, best_to.y) = static_cast<std::uint32_t>(i);
                improved = true;
            }
        }
        // Pad pass: each io slot, in slot order, tries pads in a Manhattan
        // window around the centroid of the other entities on its nets —
        // free pads as moves, owned pads as slot swaps. Full-delta
        // evaluation of every pad made this pass O(n_io * n_pads * pins)
        // and it dominated the entire placer at 100x100; every pad still
        // gets a cheap distance test, but only pads within kPadWindow of
        // the nearest-pad distance to the centroid (where any improving
        // move must roughly land, since the moved slot's nets are anchored
        // at that centroid) pay for a full delta.
        constexpr double kPadWindow = 8.0;
        for (std::size_t s = 0; s < n_io; ++s) {
            const std::size_t es = model.io_entity_ids[s];
            const std::uint32_t from = pad_of_io[s];
            double gx = model.pad_pts[from].x;
            double gy = model.pad_pts[from].y;
            {
                double sx = 0;
                double sy = 0;
                std::size_t cnt = 0;
                for (std::size_t ni : model.nets_of_entity[es])
                    for (std::size_t other : model.nets[ni].entities) {
                        if (other == es) continue;
                        const PlaceEntity& e = model.entities[other];
                        const PlacePt p = e.kind == PlaceEntity::Kind::Cluster
                                              ? PlacePt{loc[e.index].x + 1.0, loc[e.index].y + 1.0}
                                              : model.pad_pts[pad_of_io[e.io_slot]];
                        sx += p.x;
                        sy += p.y;
                        ++cnt;
                    }
                if (cnt != 0) {
                    gx = sx / static_cast<double>(cnt);
                    gy = sy / static_cast<double>(cnt);
                }
            }
            double d_floor = 1e300;
            for (std::uint32_t p = 0; p < n_pads; ++p)
                d_floor = std::min(d_floor, std::abs(model.pad_pts[p].x - gx) +
                                                std::abs(model.pad_pts[p].y - gy));
            const double d_cut = d_floor + kPadWindow;
            double best_delta = -1e-9;  // strict improvement only
            std::uint32_t best_pad = 0;
            bool have = false;
            for (std::uint32_t p = 0; p < n_pads; ++p) {
                if (p == from) continue;
                if (std::abs(model.pad_pts[p].x - gx) + std::abs(model.pad_pts[p].y - gy) >
                    d_cut)
                    continue;
                const std::uint32_t owner = pad_owner[p];
                const std::size_t t = owner == kFree ? SIZE_MAX : owner;
                const std::size_t et = t == SIZE_MAX ? SIZE_MAX : model.io_entity_ids[t];
                const double before = cost_around(es, et);
                pad_of_io[s] = p;
                if (t != SIZE_MAX) pad_of_io[t] = from;
                const double delta = cost_around(es, et) - before;
                pad_of_io[s] = from;
                if (t != SIZE_MAX) pad_of_io[t] = p;
                if (delta < best_delta) {
                    best_delta = delta;
                    best_pad = p;
                    have = true;
                }
            }
            if (have) {
                const std::uint32_t owner = pad_owner[best_pad];
                pad_of_io[s] = best_pad;
                if (owner != kFree) {
                    pad_of_io[owner] = from;
                    pad_owner[from] = owner;
                } else {
                    pad_owner[from] = kFree;
                }
                pad_owner[best_pad] = static_cast<std::uint32_t>(s);
                improved = true;
            }
        }
        if (!improved) break;
    }
}

}  // namespace afpga::cad
