#include "cad/place.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/threadpool.hpp"
#include "base/timer.hpp"
#include "cad/fingerprint.hpp"
#include "cad/place_analytical.hpp"
#include "cad/place_cost.hpp"
#include "cad/place_model.hpp"
#include "cad/place_multilevel.hpp"

namespace afpga::cad {

using base::check;
using core::PlbCoord;

namespace {

/// Mutable annealing state over the shared immutable PlaceModel.
struct State {
    const PlaceModel* model;

    // positions
    std::vector<PlbCoord> cluster_loc;
    std::vector<std::uint32_t> pad_of_io;  // io slot -> pad

    // occupancy
    std::vector<std::size_t> grid;  // (x + y*W) -> cluster index + 1, 0 = empty
    std::vector<std::size_t> pad_owner;  // pad -> io slot + 1

    explicit State(const PlaceModel& m) : model(&m) {}

    [[nodiscard]] PlacePt position(std::size_t eid) const {
        const PlaceEntity& e = model->entities[eid];
        if (e.kind == PlaceEntity::Kind::Cluster) {
            const PlbCoord c = cluster_loc[e.index];
            return {c.x + 1.0, c.y + 1.0};
        }
        // io_slot is stored on the entity; the pre-refactor code re-derived
        // it with a linear search on every position lookup (see io_slot_find).
        return model->pad_pt(pad_of_io[e.io_slot]);
    }

    /// Pre-refactor io-slot lookup, kept verbatim as the bench baseline: the
    /// seed placer ran this linear search for every I/O position query.
    [[nodiscard]] std::size_t io_slot_find(std::size_t eid) const {
        const auto it =
            std::find(model->io_entity_ids.begin(), model->io_entity_ids.end(), eid);
        return static_cast<std::size_t>(it - model->io_entity_ids.begin());
    }

    [[nodiscard]] PlacePt position_prerefactor(std::size_t eid) const {
        const PlaceEntity& e = model->entities[eid];
        if (e.kind == PlaceEntity::Kind::Cluster) {
            const PlbCoord c = cluster_loc[e.index];
            return {c.x + 1.0, c.y + 1.0};
        }
        return model->pad_pt(pad_of_io[io_slot_find(eid)]);
    }

    template <typename PositionFn>
    [[nodiscard]] double net_cost_via(const PlaceNet& n, PositionFn&& pos) const {
        double xmin = 1e18;
        double xmax = -1e18;
        double ymin = 1e18;
        double ymax = -1e18;
        for (std::size_t eid : n.entities) {
            const PlacePt p = pos(eid);
            xmin = std::min(xmin, p.x);
            xmax = std::max(xmax, p.x);
            ymin = std::min(ymin, p.y);
            ymax = std::max(ymax, p.y);
        }
        return (xmax - xmin) + (ymax - ymin);
    }

    /// Baseline move evaluation: rescan the given nets through the
    /// pre-refactor position lookup (linear io-slot search included).
    [[nodiscard]] double cost_of_prerefactor(const std::vector<std::size_t>& net_ids) const {
        double c = 0;
        for (std::size_t ni : net_ids)
            c += net_cost_via(model->nets[ni],
                              [this](std::size_t eid) { return position_prerefactor(eid); });
        return c;
    }

    [[nodiscard]] double total_cost() const {
        return model->total_cost(cluster_loc, pad_of_io);
    }
};

/// One complete annealing run with an explicit seed — the unit of work a
/// multi-seed race submits per replica. Pure function of its arguments (each
/// call owns its State, Rng and PlaceCostEngine), so replicas are safe to run
/// concurrently over the same shared model.
///
/// Cold runs (`init_loc == nullptr`) start from a seeded random placement
/// and derive the initial temperature from an accept-everything probe. Warm
/// runs (the multilevel engine's polish pass) start from the given
/// placement, skip the probe — its 100 accept-all moves would destroy the
/// warm start — and open at a low temperature so only local refinement
/// survives.
/// Warm-start polish schedule (tuned on the cad_scaling benches): opening
/// temperature per net as a fraction of the incoming cost, and a faster
/// cooling rate than the cold default — the polish budget is a handful of
/// rounds, so each one has to shed temperature quickly.
constexpr double kPolishT0 = 0.8;
constexpr double kPolishAlpha = 0.85;
Placement anneal_single(const MappedDesign& md, const PlaceModel& model,
                        const PlaceOptions& opts, std::uint64_t seed,
                        const std::vector<PlbCoord>* init_loc,
                        const std::vector<std::uint32_t>* init_pads, int max_rounds) {
    const bool warm = init_loc != nullptr;
    State st(model);
    const std::uint32_t W = model.arch->width;
    const std::uint32_t H = model.arch->height;

    // --- initial placement ------------------------------------------------------
    base::Rng rng(seed);
    st.cluster_loc.resize(model.num_clusters);
    st.grid.assign(std::size_t{W} * H, 0);
    if (warm) {
        st.cluster_loc = *init_loc;
        for (std::size_t ci = 0; ci < st.cluster_loc.size(); ++ci)
            st.grid[st.cluster_loc[ci].y * W + st.cluster_loc[ci].x] = ci + 1;
    } else {
        std::vector<std::uint32_t> cells(W * H);
        for (std::uint32_t i = 0; i < W * H; ++i) cells[i] = i;
        rng.shuffle(cells);
        for (std::size_t ci = 0; ci < model.num_clusters; ++ci) {
            st.cluster_loc[ci] = {cells[ci] % W, cells[ci] / W};
            st.grid[cells[ci]] = ci + 1;
        }
    }
    st.pad_of_io.resize(model.io_entity_ids.size());
    st.pad_owner.assign(model.geom.num_pads(), 0);
    if (warm) {
        st.pad_of_io = *init_pads;
        for (std::size_t i = 0; i < st.pad_of_io.size(); ++i)
            st.pad_owner[st.pad_of_io[i]] = i + 1;
    } else {
        std::vector<std::uint32_t> pads(model.geom.num_pads());
        for (std::uint32_t i = 0; i < pads.size(); ++i) pads[i] = i;
        rng.shuffle(pads);
        for (std::size_t i = 0; i < model.io_entity_ids.size(); ++i) {
            st.pad_of_io[i] = pads[i];
            st.pad_owner[pads[i]] = i + 1;
        }
    }

    // --- incremental cost engine -------------------------------------------------
    // Entities and nets mirror the model tables; the engine caches positions
    // and per-net costs so move evaluation never rescans positions. Every
    // coordinate is integral (PLBs at x+1, pads on the frame), so the engine
    // works in integers; the pad points are converted once, here. The 2^29
    // bound keeps every net's HPWL (two spans) inside int32.
    PlaceCostEngine engine;
    std::vector<std::int32_t> pad_x;
    std::vector<std::int32_t> pad_y;
    if (opts.incremental) {
        auto integral = [](double v) {
            check(v == std::trunc(v) && v >= 0 && v <= double{1 << 29},
                  "place: placement coordinate is not an integer in [0, 2^29]");
            return static_cast<std::int32_t>(v);
        };
        for (const PlacePt& p : model.pad_pts) {
            pad_x.push_back(integral(p.x));
            pad_y.push_back(integral(p.y));
        }
        for (std::size_t eid = 0; eid < model.entities.size(); ++eid) {
            const PlacePt p = st.position(eid);
            engine.add_entity(integral(p.x), integral(p.y));
        }
        for (const PlaceNet& n : model.nets) engine.add_net(n.entities);
        engine.finalize();
    }

    double cost = opts.incremental ? engine.total_cost() : st.total_cost();

    Placement result;

    // --- annealing ---------------------------------------------------------------
    // Range limit for move proposals (0 = whole fabric). Cold runs always
    // propose fabric-wide; warm (polish) rounds shrink the window so
    // low-temperature rounds spend their moves on proposals that can
    // actually be accepted (VPR's rlim idea, on a fixed schedule to stay
    // deterministic).
    std::uint32_t move_rlim = 0;
    auto try_move = [&](double temperature, bool commit_stats) -> double {
        // Returns the applied delta (0 if rejected).
        const bool move_cluster =
            model.io_entity_ids.empty() ||
            (model.num_clusters != 0 && rng.chance(0.7));
        if (move_cluster && model.num_clusters == 0) return 0;
        if (commit_stats) ++result.moves_tried;

        // Legacy (pre-refactor) evaluation: rescan the affected nets before
        // and after a tentative mutation, then roll back.
        auto legacy_delta = [&](std::size_t eid_a, std::size_t eid_b,
                                auto&& apply, auto&& revert) {
            std::vector<std::size_t> affected = model.nets_of_entity[eid_a];
            if (eid_b != SIZE_MAX)
                for (std::size_t ni : model.nets_of_entity[eid_b]) affected.push_back(ni);
            std::sort(affected.begin(), affected.end());
            affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
            const double before = st.cost_of_prerefactor(affected);
            apply();
            const double after = st.cost_of_prerefactor(affected);
            revert();
            return after - before;
        };
        auto accept = [&](double delta) {
            return delta <= 0 ||
                   rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9));
        };

        if (move_cluster) {
            const std::size_t ci = static_cast<std::size_t>(rng.below(model.num_clusters));
            const PlbCoord from = st.cluster_loc[ci];
            PlbCoord to;
            if (move_rlim == 0) {
                const std::uint32_t c = static_cast<std::uint32_t>(rng.below(W * H));
                to = {c % W, c / W};
            } else {
                const std::uint32_t x0 = from.x > move_rlim ? from.x - move_rlim : 0;
                const std::uint32_t x1 = std::min(W - 1, from.x + move_rlim);
                const std::uint32_t y0 = from.y > move_rlim ? from.y - move_rlim : 0;
                const std::uint32_t y1 = std::min(H - 1, from.y + move_rlim);
                to = {x0 + static_cast<std::uint32_t>(rng.below(x1 - x0 + 1)),
                      y0 + static_cast<std::uint32_t>(rng.below(y1 - y0 + 1))};
            }
            const std::uint32_t cell = to.y * W + to.x;
            if (to == from) return 0;
            const std::size_t other = st.grid[cell];  // cluster index + 1
            double delta = 0;
            if (opts.incremental) {
                const EntityMove moves[2] = {
                    {ci, static_cast<std::int32_t>(to.x + 1), static_cast<std::int32_t>(to.y + 1)},
                    {other - 1, static_cast<std::int32_t>(from.x + 1),
                     static_cast<std::int32_t>(from.y + 1)}};
                delta = engine.eval({moves, other ? std::size_t{2} : std::size_t{1}});
            } else {
                delta = legacy_delta(
                    ci, other ? other - 1 : SIZE_MAX,
                    [&] {
                        st.cluster_loc[ci] = to;
                        if (other) st.cluster_loc[other - 1] = from;
                    },
                    [&] {
                        st.cluster_loc[ci] = from;
                        if (other) st.cluster_loc[other - 1] = to;
                    });
            }
            if (!accept(delta)) return 0;
            st.cluster_loc[ci] = to;
            st.grid[cell] = ci + 1;
            st.grid[from.y * W + from.x] = other;
            if (other) st.cluster_loc[other - 1] = from;
            if (opts.incremental) engine.commit();
            if (commit_stats) ++result.moves_accepted;
            return delta;
        }

        const std::size_t slot =
            static_cast<std::size_t>(rng.below(model.io_entity_ids.size()));
        const std::uint32_t n_pads = static_cast<std::uint32_t>(model.geom.num_pads());
        const std::uint32_t from_pad = st.pad_of_io[slot];
        std::uint32_t to_pad = 0;
        if (move_rlim == 0) {
            to_pad = static_cast<std::uint32_t>(rng.below(n_pads));
        } else {
            // Pad indices run along the perimeter, so an index window is a
            // ring-local window; scale it to keep pad and cluster locality
            // comparable.
            const std::uint32_t span = std::min(
                n_pads - 1, std::max<std::uint32_t>(4, 2 * move_rlim * n_pads /
                                                           (2 * (W + H))));
            to_pad = (from_pad + 1 +
                      static_cast<std::uint32_t>(rng.below(2 * span + 1)) + n_pads - 1 -
                      span) %
                     n_pads;
        }
        if (to_pad == from_pad) return 0;
        const std::size_t other = st.pad_owner[to_pad];  // io slot + 1
        const std::size_t eid = model.io_entity_ids[slot];
        double delta = 0;
        if (opts.incremental) {
            const EntityMove moves[2] = {
                {eid, pad_x[to_pad], pad_y[to_pad]},
                {other ? model.io_entity_ids[other - 1] : SIZE_MAX, pad_x[from_pad],
                 pad_y[from_pad]}};
            delta = engine.eval({moves, other ? std::size_t{2} : std::size_t{1}});
        } else {
            delta = legacy_delta(
                eid, other ? model.io_entity_ids[other - 1] : SIZE_MAX,
                [&] {
                    st.pad_of_io[slot] = to_pad;
                    if (other) st.pad_of_io[other - 1] = from_pad;
                },
                [&] {
                    st.pad_of_io[slot] = from_pad;
                    if (other) st.pad_of_io[other - 1] = to_pad;
                });
        }
        if (!accept(delta)) return 0;
        st.pad_of_io[slot] = to_pad;
        st.pad_owner[to_pad] = slot + 1;
        st.pad_owner[from_pad] = other;
        if (other) st.pad_of_io[other - 1] = from_pad;
        if (opts.incremental) engine.commit();
        if (commit_stats) ++result.moves_accepted;
        return delta;
    };

    const bool do_anneal = warm || opts.anneal;
    if (do_anneal && !model.nets.empty()) {
        double temperature;
        if (warm) {
            // Low opening temperature: ~4x the exit threshold, so the polish
            // decays through O(10) rounds of strictly local refinement.
            temperature = kPolishT0 * std::max(cost, 1.0) / static_cast<double>(model.nets.size());
        } else {
            // Initial temperature: accept-everything probe (VPR's 20*sigma rule).
            std::vector<double> deltas;
            for (int i = 0; i < 100; ++i) {
                const double d = try_move(1e18, false);
                deltas.push_back(d);
            }
            double mean = 0;
            for (double d : deltas) mean += d;
            mean /= static_cast<double>(deltas.size());
            double var = 0;
            for (double d : deltas) var += (d - mean) * (d - mean);
            var /= static_cast<double>(deltas.size());
            temperature = std::max(1.0, 20.0 * std::sqrt(var));
            // Recompute cost (probe moves changed the state).
            cost = opts.incremental ? engine.total_cost() : st.total_cost();
        }

        const std::size_t n_ent = model.entities.size();
        const auto moves_per_temp = static_cast<std::size_t>(
            std::max(16.0, opts.moves_scale * std::pow(static_cast<double>(n_ent), 4.0 / 3.0)));

        const double alpha = warm ? kPolishAlpha : opts.alpha;
        // Warm runs shrink the proposal window geometrically from half the
        // fabric down to 1 over the round budget.
        const double rlim0 = std::max(2.0, 0.5 * static_cast<double>(std::max(W, H)));
        const double rlim_shrink =
            max_rounds > 1 ? std::pow(1.0 / rlim0, 1.0 / (max_rounds - 1)) : 1.0;
        double rlim_f = rlim0;
        for (int round = 0; round < max_rounds; ++round) {
            if (warm)
                move_rlim = static_cast<std::uint32_t>(
                    std::max(1.0, std::llround(rlim_f) * 1.0));
            for (std::size_t m = 0; m < moves_per_temp; ++m) cost += try_move(temperature, true);
            temperature *= alpha;
            rlim_f *= rlim_shrink;
            ++result.anneal_rounds;
            result.cost_trajectory.push_back(cost);
            if (temperature <
                0.005 * std::max(cost, 1.0) / static_cast<double>(model.nets.size()))
                break;
        }
    }

    // --- export -------------------------------------------------------------------
    result.cluster_loc = st.cluster_loc;
    for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
        result.pi_pad[md.primary_inputs[i].first] = st.pad_of_io[i];
    for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
        result.po_pad[md.primary_outputs[i].first] =
            st.pad_of_io[md.primary_inputs.size() + i];
    result.final_cost = st.total_cost();
    return result;
}

/// One multilevel run: the cad/place_multilevel.cpp V-cycle (global
/// placement + legalization), then the optional warm-start polish anneal
/// and the detailed descent.
Placement place_multilevel_single(const MappedDesign& md, const PlaceModel& model,
                                  const PlaceOptions& opts, std::uint64_t seed) {
    AnalyticalResult ar = place_multilevel_global(model, opts, seed);
    Placement result;
    if (opts.polish_rounds > 0 && !model.nets.empty()) {
        result = anneal_single(md, model, opts, seed, &ar.cluster_loc, &ar.pad_of_io,
                               opts.polish_rounds);
        // Final detailed-placement descent over the polished result (the
        // anneal leaves low-temperature residual the exhaustive window
        // cleans up deterministically).
        std::vector<std::uint32_t> pad_of_io(model.io_entity_ids.size());
        for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
            pad_of_io[i] = result.pi_pad.at(md.primary_inputs[i].first);
        for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
            pad_of_io[md.primary_inputs.size() + i] =
                result.po_pad.at(md.primary_outputs[i].first);
        refine_detailed(model, pad_of_io, result.cluster_loc);
        for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
            result.pi_pad[md.primary_inputs[i].first] = pad_of_io[i];
        for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
            result.po_pad[md.primary_outputs[i].first] =
                pad_of_io[md.primary_inputs.size() + i];
        result.final_cost = model.total_cost(result.cluster_loc, pad_of_io);
    } else {
        refine_detailed(model, ar.pad_of_io, ar.cluster_loc);
        result.cluster_loc = ar.cluster_loc;
        for (std::size_t i = 0; i < md.primary_inputs.size(); ++i)
            result.pi_pad[md.primary_inputs[i].first] = ar.pad_of_io[i];
        for (std::size_t i = 0; i < md.primary_outputs.size(); ++i)
            result.po_pad[md.primary_outputs[i].first] =
                ar.pad_of_io[md.primary_inputs.size() + i];
        result.final_cost = model.total_cost(ar.cluster_loc, ar.pad_of_io);
    }
    result.engine = PlaceEngine::Multilevel;
    result.analytical = std::move(ar.stats);
    return result;
}

}  // namespace

Placement place(const PackedDesign& pd, const MappedDesign& md, const core::ArchSpec& arch,
                const PlaceOptions& opts) {
    if (opts.algorithm == PlaceAlgorithm::Multilevel) {
        // Both knobs belong to the cold annealer; the V-cycle would drop them.
        check(opts.parallel_seeds <= 1,
              "place: parallel_seeds > 1 needs algorithm Anneal or Race (Multilevel runs one "
              "V-cycle)");
        check(opts.anneal,
              "place: anneal = false needs algorithm Anneal or Race (Multilevel always "
              "places analytically)");
        return place_multilevel_single(md, PlaceModel(pd, md, arch), opts, opts.seed);
    }
    const PlaceModel model(pd, md, arch);

    const int n_anneal = std::max(1, opts.parallel_seeds);
    const bool with_multilevel = opts.algorithm == PlaceAlgorithm::Race;
    const int n = n_anneal + (with_multilevel ? 1 : 0);
    if (n == 1)
        return anneal_single(md, model, opts, opts.seed, nullptr, nullptr, opts.max_rounds);

    // Race N independently-seeded replicas on the pool (in Race mode the
    // multilevel engine is the final replica). Every replica is a pure
    // function of (model, opts, derived seed), and the winner is picked by
    // (final_cost, replica index) over the results in replica order, so the
    // outcome is identical whatever the pool size is. Replica slots outlive
    // the pool (reverse destruction order). parallel_for drains every
    // replica before rethrowing the lowest-index failure, which matches the
    // order a serial run of the same seeds would report.
    std::vector<Placement> results(static_cast<std::size_t>(n));
    std::vector<double> wall_ms(static_cast<std::size_t>(n), 0.0);
    // Never spawn more workers than replicas: a wide default pool would only
    // oversubscribe the machine when many place() races run concurrently
    // (e.g. inside batch jobs — which should still pin `threads` explicitly).
    const std::size_t workers =
        std::min<std::size_t>(opts.threads != 0 ? opts.threads : base::ThreadPool::default_workers(),
                              static_cast<std::size_t>(n));
    base::ThreadPool pool(workers);
    pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
        base::WallTimer t;
        const std::uint64_t rseed = base::Rng::derive_seed(opts.seed, i);
        if (with_multilevel && i == static_cast<std::size_t>(n_anneal))
            results[i] = place_multilevel_single(md, model, opts, rseed);
        else
            results[i] = anneal_single(md, model, opts, rseed, nullptr, nullptr,
                                       opts.max_rounds);
        wall_ms[i] = t.elapsed_ms();
    });

    std::size_t win = 0;
    for (std::size_t i = 1; i < results.size(); ++i)
        if (results[i].final_cost < results[win].final_cost) win = i;

    std::vector<PlaceReplica> replicas(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        replicas[i].seed = base::Rng::derive_seed(opts.seed, i);
        replicas[i].final_cost = results[i].final_cost;
        replicas[i].wall_ms = wall_ms[i];
        replicas[i].cost_trajectory = results[i].cost_trajectory;
        replicas[i].engine = results[i].engine;
    }

    Placement winner = std::move(results[win]);
    winner.replicas = std::move(replicas);
    winner.winner_replica = win;
    return winner;
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

std::uint64_t PlaceOptions::fingerprint() const noexcept {
    static_assert(sizeof(PlaceOptions) == 88,
                  "PlaceOptions changed: update fingerprint() and this assert");
    Fingerprint f;
    f.mix(seed)
        .mix(alpha)
        .mix(moves_scale)
        .mix(anneal)
        .mix(incremental)
        .mix(algorithm)
        .mix(parallel_seeds)
        .mix(threads)
        .mix(max_rounds)
        .mix(solver_passes)
        .mix(solver_max_iters)
        .mix(polish_rounds)
        .mix(solver_tolerance)
        .mix(anchor_weight)
        .mix(coarsen_ratio)
        .mix(min_coarse_nodes)
        .mix(max_levels);
    return f.digest();
}

}  // namespace afpga::cad
