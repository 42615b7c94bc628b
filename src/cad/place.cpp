#include "cad/place.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/timer.hpp"
#include "cad/place_cost.hpp"
#include "cad/place_model.hpp"
#include "cad/place_multilevel.hpp"

namespace afpga::cad {

using base::check;
using core::PlbCoord;

namespace {

/// Warm-start polish schedule (tuned on the cad_scaling benches): opening
/// temperature per net as a fraction of the incoming cost, and the cooling
/// rate — the polish budget is a handful of rounds, so each one has to shed
/// temperature quickly.
constexpr double kPolishT0 = 0.8;
constexpr double kPolishAlpha = 0.85;

/// Uphill deltas below this size take their acceptance probability from
/// the polish's per-round table.
constexpr std::size_t kBoltzmannTable = 64;

/// Warm-start simulated-annealing polish of the legal placement in `ar`,
/// in place: at most `opts.polish_rounds` temperature rounds of cluster
/// relocations and swaps and pad reassignments, scored and committed on
/// `ar.engine`. The opening temperature is low and the proposal window
/// shrinks geometrically from half the fabric down to 1 (VPR's rlim idea,
/// on a fixed schedule to stay deterministic), so only local refinement
/// survives. Move counts, rounds and the per-round cost land in `stats`.
/// A pure function of its arguments and `seed`.
void polish_anneal(const PlaceModel& model, const PlaceOptions& opts, std::uint64_t seed,
                   AnalyticalResult& ar, Placement& stats) {
    const std::uint32_t W = model.arch->width;
    const std::uint32_t H = model.arch->height;
    std::vector<PlbCoord>& cluster_loc = ar.cluster_loc;
    std::vector<std::uint32_t>& pad_of_io = ar.pad_of_io;
    const std::vector<std::int32_t>& pad_x = ar.pad_x;
    const std::vector<std::int32_t>& pad_y = ar.pad_y;
    PlaceCostEngine& engine = ar.engine;
    base::Rng rng(seed);

    // Occupancy: PLB (x + y*W) -> cluster index + 1, pad -> io slot + 1.
    std::vector<std::size_t> grid(std::size_t{W} * H, 0);
    for (std::size_t ci = 0; ci < cluster_loc.size(); ++ci)
        grid[cluster_loc[ci].y * W + cluster_loc[ci].x] = ci + 1;
    std::vector<std::size_t> pad_owner(model.geom.num_pads(), 0);
    for (std::size_t i = 0; i < pad_of_io.size(); ++i) pad_owner[pad_of_io[i]] = i + 1;
    double cost = engine.total_cost();

    // --- moves ---------------------------------------------------------------------
    // Proposals stay inside a window of `move_rlim` PLBs around the moved
    // cluster (for pads, a ring-local index window of comparable reach).
    std::uint32_t move_rlim = 0;
    // Every delta is an integer, so the Metropolis test of a small uphill
    // delta d reads exp(-d / T) from a table refilled each round with the
    // very expression it replaces.
    std::array<double, kBoltzmannTable> boltzmann{};
    auto try_move = [&](double temperature) -> double {
        // Returns the applied delta (0 if rejected).
        const bool move_cluster =
            model.io_entity_ids.empty() ||
            (model.num_clusters != 0 && rng.chance(0.7));
        if (move_cluster && model.num_clusters == 0) return 0;
        ++stats.moves_tried;
        auto accept = [&](double delta) {
            if (delta <= 0) return true;
            const double u = rng.uniform();
            if (delta < static_cast<double>(kBoltzmannTable))
                return u < boltzmann[static_cast<std::size_t>(delta)];
            return u < std::exp(-delta / std::max(temperature, 1e-9));
        };

        if (move_cluster) {
            const std::size_t ci = static_cast<std::size_t>(rng.below(model.num_clusters));
            const PlbCoord from = cluster_loc[ci];
            const std::uint32_t x0 = from.x > move_rlim ? from.x - move_rlim : 0;
            const std::uint32_t x1 = std::min(W - 1, from.x + move_rlim);
            const std::uint32_t y0 = from.y > move_rlim ? from.y - move_rlim : 0;
            const std::uint32_t y1 = std::min(H - 1, from.y + move_rlim);
            const PlbCoord to{x0 + static_cast<std::uint32_t>(rng.below(x1 - x0 + 1)),
                              y0 + static_cast<std::uint32_t>(rng.below(y1 - y0 + 1))};
            const std::uint32_t cell = to.y * W + to.x;
            if (to == from) return 0;
            const std::size_t other = grid[cell];  // cluster index + 1
            const EntityMove moves[2] = {
                {ci, static_cast<std::int32_t>(to.x + 1), static_cast<std::int32_t>(to.y + 1)},
                {other - 1, static_cast<std::int32_t>(from.x + 1),
                 static_cast<std::int32_t>(from.y + 1)}};
            const double delta = engine.eval({moves, other ? std::size_t{2} : std::size_t{1}});
            if (!accept(delta)) return 0;
            cluster_loc[ci] = to;
            grid[cell] = ci + 1;
            grid[from.y * W + from.x] = other;
            if (other) cluster_loc[other - 1] = from;
            engine.commit();
            ++stats.moves_accepted;
            return delta;
        }

        const std::size_t slot =
            static_cast<std::size_t>(rng.below(model.io_entity_ids.size()));
        const std::uint32_t n_pads = static_cast<std::uint32_t>(model.geom.num_pads());
        const std::uint32_t from_pad = pad_of_io[slot];
        // Pad indices run along the perimeter, so an index window is a
        // ring-local window; scale it to keep pad and cluster locality
        // comparable.
        const std::uint32_t span = std::min(
            n_pads - 1,
            std::max<std::uint32_t>(4, 2 * move_rlim * n_pads / (2 * (W + H))));
        const std::uint32_t to_pad =
            (from_pad + 1 + static_cast<std::uint32_t>(rng.below(2 * span + 1)) + n_pads - 1 -
             span) %
            n_pads;
        if (to_pad == from_pad) return 0;
        const std::size_t other = pad_owner[to_pad];  // io slot + 1
        const EntityMove moves[2] = {
            {model.io_entity_ids[slot], pad_x[to_pad], pad_y[to_pad]},
            {other ? model.io_entity_ids[other - 1] : SIZE_MAX, pad_x[from_pad],
             pad_y[from_pad]}};
        const double delta = engine.eval({moves, other ? std::size_t{2} : std::size_t{1}});
        if (!accept(delta)) return 0;
        pad_of_io[slot] = to_pad;
        pad_owner[to_pad] = slot + 1;
        pad_owner[from_pad] = other;
        if (other) pad_of_io[other - 1] = from_pad;
        engine.commit();
        ++stats.moves_accepted;
        return delta;
    };

    // --- schedule --------------------------------------------------------------------
    // Low opening temperature: ~4x the exit threshold, so the polish decays
    // through O(10) rounds of strictly local refinement.
    const double n_nets = static_cast<double>(model.nets.size());
    double temperature = kPolishT0 * std::max(cost, 1.0) / n_nets;
    const double move_budget = std::max(
        16.0,
        opts.moves_scale * std::pow(static_cast<double>(model.entities.size()), 4.0 / 3.0));
    check(move_budget <= 0x1p53, "place: moves_scale too large for this design");
    const auto moves_per_temp = static_cast<std::size_t>(move_budget);
    const int rounds = opts.polish_rounds;
    const double rlim0 = std::max(2.0, 0.5 * static_cast<double>(std::max(W, H)));
    const double rlim_shrink = rounds > 1 ? std::pow(1.0 / rlim0, 1.0 / (rounds - 1)) : 1.0;
    double rlim_f = rlim0;
    for (int round = 0; round < rounds; ++round) {
        move_rlim = static_cast<std::uint32_t>(std::max(1.0, std::llround(rlim_f) * 1.0));
        for (std::size_t d = 1; d < kBoltzmannTable; ++d)
            boltzmann[d] = std::exp(-static_cast<double>(d) / std::max(temperature, 1e-9));
        for (std::size_t m = 0; m < moves_per_temp; ++m) cost += try_move(temperature);
        temperature *= kPolishAlpha;
        rlim_f *= rlim_shrink;
        ++stats.anneal_rounds;
        stats.cost_trajectory.push_back(cost);
        if (temperature < 0.005 * std::max(cost, 1.0) / n_nets) break;
    }
}

/// Deterministic detailed-placement descent of the placement in `ar`, in
/// place, priced and committed on `ar.engine`: each cluster, in index
/// order, takes the best strictly-improving free site or swap inside a
/// small window, then each io slot takes the best strictly-improving pad
/// move or pad swap; passes repeat until dry (VPR's zero-temperature
/// quench, on the anneal's own cost engine). Cluster passes alternate with
/// pad passes because on I/O-heavy designs most of the recoverable
/// wirelength is in the pad assignment, which greedy seeding and short
/// polishing leave suboptimal. place() runs it last, after the polish:
/// descending before annealing traps the anneal in the descent's local
/// basin and measurably worsens the result. A pure function of its
/// arguments.
void refine_detailed(const PlaceModel& model, AnalyticalResult& ar) {
    const std::uint32_t W = model.arch->width;
    const std::uint32_t H = model.arch->height;
    std::vector<PlbCoord>& loc = ar.cluster_loc;
    std::vector<std::uint32_t>& pad_of_io = ar.pad_of_io;
    PlaceCostEngine& engine = ar.engine;
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

    // Cost delta of moving cluster i to `to`, swapping with its occupant
    // if any. commit() applies the last one evaluated.
    auto eval_cluster = [&](std::size_t i, PlbCoord to) {
        const PlbCoord from = loc[i];
        const std::uint32_t j = cell(to.x, to.y);
        const EntityMove moves[2] = {
            {i, static_cast<std::int32_t>(to.x + 1), static_cast<std::int32_t>(to.y + 1)},
            {j, static_cast<std::int32_t>(from.x + 1), static_cast<std::int32_t>(from.y + 1)}};
        return engine.eval({moves, j == kFree ? std::size_t{1} : std::size_t{2}});
    };
    // Cost delta of moving io slot s to pad `to`, swapping with its owner
    // if any.
    auto eval_pad = [&](std::size_t s, std::uint32_t to) {
        const std::uint32_t from = pad_of_io[s];
        const std::uint32_t t = pad_owner[to];
        const EntityMove moves[2] = {
            {model.io_entity_ids[s], ar.pad_x[to], ar.pad_y[to]},
            {t == kFree ? SIZE_MAX : model.io_entity_ids[t], ar.pad_x[from], ar.pad_y[from]}};
        return engine.eval({moves, t == kFree ? std::size_t{1} : std::size_t{2}});
    };

    for (int pass = 0; pass < kMaxPasses; ++pass) {
        bool improved = false;
        for (std::size_t i = 0; i < n; ++i) {
            const PlbCoord from = loc[i];
            const std::uint32_t ty0 =
                from.y > static_cast<std::uint32_t>(kRadius) ? from.y - kRadius : 0;
            const std::uint32_t ty1 = std::min(H - 1, from.y + kRadius);
            const std::uint32_t tx0 =
                from.x > static_cast<std::uint32_t>(kRadius) ? from.x - kRadius : 0;
            const std::uint32_t tx1 = std::min(W - 1, from.x + kRadius);
            double best_delta = -1e-9;  // strict improvement only
            PlbCoord best_to{};
            bool have = false;
            for (std::uint32_t ty = ty0; ty <= ty1; ++ty)
                for (std::uint32_t tx = tx0; tx <= tx1; ++tx) {
                    if (tx == from.x && ty == from.y) continue;
                    const double delta = eval_cluster(i, {tx, ty});
                    if (delta < best_delta) {
                        best_delta = delta;
                        best_to = {tx, ty};
                        have = true;
                    }
                }
            if (have) {
                (void)eval_cluster(i, best_to);
                engine.commit();
                const std::uint32_t occ = cell(best_to.x, best_to.y);
                loc[i] = best_to;
                if (occ != kFree) loc[occ] = from;
                cell(from.x, from.y) = occ;
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
                        sx += engine.entity_x(other);
                        sy += engine.entity_y(other);
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
                const double delta = eval_pad(s, p);
                if (delta < best_delta) {
                    best_delta = delta;
                    best_pad = p;
                    have = true;
                }
            }
            if (have) {
                (void)eval_pad(s, best_pad);
                engine.commit();
                const std::uint32_t owner = pad_owner[best_pad];
                pad_of_io[s] = best_pad;
                if (owner != kFree) pad_of_io[owner] = from;
                pad_owner[from] = owner;
                pad_owner[best_pad] = static_cast<std::uint32_t>(s);
                improved = true;
            }
        }
        if (!improved) break;
    }
}

}  // namespace

Placement place(const PackedDesign& pd, const MappedDesign& md, const core::ArchSpec& arch,
                const PlaceOptions& opts) {
    check(opts.algorithm == PlaceAlgorithm::Multilevel, "place: algorithm must be Multilevel");
    // Every float knob can arrive from the wire, and a non-finite one would
    // reach a size or coordinate cast downstream.
    auto non_negative = [](double v) { return std::isfinite(v) && v >= 0; };
    check(non_negative(opts.moves_scale), "place: moves_scale must be finite and >= 0");
    // The polish budget grows linearly with moves_scale: cap it like the
    // int knobs below, at 100x the default.
    check(opts.moves_scale <= 1000.0, "place: moves_scale must be <= 1000");
    check(non_negative(opts.anchor_weight), "place: anchor_weight must be finite and >= 0");
    check(non_negative(opts.solver_tolerance),
          "place: solver_tolerance must be finite and >= 0");
    check(std::isfinite(opts.coarsen_ratio), "place: coarsen_ratio must be finite");
    // So can every int knob; each is capped far above any use so that one
    // request cannot buy unbounded CPU (negative values clamp downstream).
    auto at_most = [](int v, int cap, const char* field) {
        check(v <= cap, std::string("place: ") + field + " must be <= " + std::to_string(cap));
    };
    at_most(opts.polish_rounds, 64, "polish_rounds");
    at_most(opts.solver_passes, 256, "solver_passes");
    at_most(opts.solver_max_iters, 10'000, "solver_max_iters");
    at_most(opts.max_levels, 64, "max_levels");

    base::WallTimer timer;
    const PlaceModel model(pd, md, arch);
    // One cost engine, built at the legal placement, prices every move of
    // the polish and of the final descent.
    AnalyticalResult ar = place_multilevel_global(model, opts, opts.seed);
    Placement result;
    result.global_ms = timer.elapsed_ms();
    if (opts.polish_rounds > 0 && !model.nets.empty())
        polish_anneal(model, opts, opts.seed, ar, result);
    const double polished_ms = timer.elapsed_ms();
    result.polish_ms = polished_ms - result.global_ms;
    // Final detailed-placement descent (the anneal leaves low-temperature
    // residual the exhaustive window cleans up deterministically).
    refine_detailed(model, ar);
    result.descent_ms = timer.elapsed_ms() - polished_ms;
    result.final_cost = ar.engine.total_cost();
    result.cluster_loc = std::move(ar.cluster_loc);
    for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
        result.pi_pad[md.primary_inputs[i].first] = ar.pad_of_io[i];
    for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
        result.po_pad[md.primary_outputs[i].first] = ar.pad_of_io[md.primary_inputs.size() + i];
    result.analytical = std::move(ar.stats);
    return result;
}

double placement_wirelength(const PackedDesign& pd, const MappedDesign& md,
                            const core::ArchSpec& arch, const Placement& pl) {
    // Cheap recomputation: reuse place's machinery is awkward; compute HPWL
    // directly over signals here.
    const auto consumers = pd.build_consumers(md);
    core::FabricGeometry geom(arch);
    auto pad_pt = [&](std::uint32_t pad) {
        const core::IobCoord io = geom.pad_iob(pad);
        switch (io.side) {
            case core::Side::Bottom: return std::pair<double, double>{io.offset + 1.0, 0.0};
            case core::Side::Top:
                return std::pair<double, double>{io.offset + 1.0, arch.height + 1.0};
            case core::Side::Left: return std::pair<double, double>{0.0, io.offset + 1.0};
            case core::Side::Right:
                return std::pair<double, double>{arch.width + 1.0, io.offset + 1.0};
        }
        return std::pair<double, double>{0, 0};
    };
    std::unordered_map<NetId, std::size_t> producer_cluster;
    for (std::size_t ci = 0; ci < pd.clusters.size(); ++ci)
        for (NetId s : pd.clusters[ci].produced(md)) producer_cluster[s] = ci;
    std::unordered_map<NetId, std::string> pi_name;
    for (const auto& [name, s] : md.primary_inputs) pi_name[s] = name;

    double total = 0;
    std::unordered_map<NetId, std::vector<std::pair<double, double>>> pts;
    for (const auto& [s, clist] : consumers) {
        auto& v = pts[s];
        for (std::size_t c : clist)
            v.emplace_back(pl.cluster_loc[c].x + 1.0, pl.cluster_loc[c].y + 1.0);
    }
    for (const auto& [name, s] : md.primary_outputs) pts[s].push_back(pad_pt(pl.po_pad.at(name)));
    for (auto& [s, v] : pts) {
        if (md.constant_signals.count(s)) continue;
        const auto pit = pi_name.find(s);
        if (pit != pi_name.end()) {
            v.push_back(pad_pt(pl.pi_pad.at(pit->second)));
        } else {
            const auto dit = producer_cluster.find(s);
            if (dit != producer_cluster.end())
                v.emplace_back(pl.cluster_loc[dit->second].x + 1.0,
                               pl.cluster_loc[dit->second].y + 1.0);
        }
        if (v.size() < 2) continue;
        double xmin = 1e18;
        double xmax = -1e18;
        double ymin = 1e18;
        double ymax = -1e18;
        for (auto [x, y] : v) {
            xmin = std::min(xmin, x);
            xmax = std::max(xmax, x);
            ymin = std::min(ymin, y);
            ymax = std::max(ymax, y);
        }
        total += (xmax - xmin) + (ymax - ymin);
    }
    return total;
}

}  // namespace afpga::cad
