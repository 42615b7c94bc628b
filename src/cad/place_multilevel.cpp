#include "cad/place_multilevel.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/timer.hpp"
#include "cad/place_coarsen.hpp"
#include "cad/place_legalize.hpp"
#include "cad/place_solver.hpp"

namespace afpga::cad {

namespace {

/// Minimum pin separation in B2B weights (keeps 1/d bounded when pins
/// coincide).
constexpr double kB2bEps = 1e-2;

/// Intermediate levels run solver_passes / kLevelPassShrink refinement
/// passes (one pass at the default schedule): the coarse solution already
/// carries the global structure, so the descent only irons out
/// interpolation artifacts. This is where the speedup comes from — the
/// full schedule runs only on the coarsest few hundred super-nodes.
/// Running the descent short also keeps the growing anchor weight near
/// the range a single-level schedule of solver_passes reaches, which
/// measurably improves the finest solution (strong leftover anchors pin
/// nodes to their interpolated spots).
constexpr int kLevelPassShrink = 16;

/// The finest level gets solver_passes / kFinestPassShrink passes — more
/// than the intermediate levels, because its result is the one that
/// legalizes, but still far short of the full schedule. (A single-level
/// hierarchy runs the full schedule: its one level is the coarsest.)
constexpr int kFinestPassShrink = 4;

/// Sub-coarsest levels also cap CG iterations at solver_max_iters /
/// kLevelIterShrink (floor 10): their solves are warm-started from the
/// interpolated parent solution and anchored, so a short budget reaches
/// the same neighbourhood; past ~solver_max_iters/6 the extra iterations
/// only re-tighten what spreading is about to move anyway.
constexpr int kLevelIterShrink = 6;

/// Deterministic RNG-free per-index jitter in [-0.25, 0.25], used for the
/// coarsest init and for interpolation so coincident nodes never hand the
/// B2B model all-degenerate bounds.
double jitter(std::size_t i, int shift) {
    const std::uint64_t h = (i + 1) * 0x9E3779B97F4A7C15ull;
    return (static_cast<double>((h >> shift) & 1023) / 1023.0 - 0.5) * 0.5;
}

/// Assemble one axis of the B2B model over one level into the caller's
/// reusable system: for each net, the two bound pins (min/max coordinate,
/// first-in-pin-order on ties) connect to each other and to every interior
/// pin with weight w(net) * 2 / ((p-1) * max(dist, eps)), where w(net) is
/// the contracted net multiplicity. Fixed pins (io slots on their pads)
/// fold into diag/rhs; anchor targets (spreading) attach every node to a
/// fixed pseudo-pin.
void build_level_axis(const CoarseLevel& lv, const PlaceModel& model, int axis,
                      const std::vector<double>& cx, const std::vector<double>& cy,
                      const std::vector<std::uint32_t>& pad_of_io,
                      const std::vector<double>* anchor_targets, double anchor_w,
                      QuadSystem& sys) {
    const std::size_t n = lv.num_nodes;
    sys.reset(n);
    auto coord_of = [&](std::uint32_t pin) -> double {
        if (pin < n) return axis == 0 ? cx[pin] : cy[pin];
        const PlacePt p = model.pad_pts[pad_of_io[pin - n]];
        return axis == 0 ? p.x : p.y;
    };
    for (const CoarseNet& net : lv.nets) {
        const std::size_t p = net.pins.size();
        if (p < 2) continue;
        std::uint32_t lo = net.pins[0];
        std::uint32_t hi = lo;
        double clo = coord_of(lo);
        double chi = clo;
        for (std::size_t k = 1; k < p; ++k) {
            const std::uint32_t pin = net.pins[k];
            const double c = coord_of(pin);
            if (c < clo) {
                clo = c;
                lo = pin;
            }
            if (c > chi) {
                chi = c;
                hi = pin;
            }
        }
        const double base = net.weight * 2.0 / static_cast<double>(p - 1);
        auto add_edge = [&](std::uint32_t a, std::uint32_t b, double ca, double cb) {
            if (a == b) return;
            const double w = base / std::max(std::abs(ca - cb), kB2bEps);
            const bool ma = a < n;
            const bool mb = b < n;
            if (ma && mb)
                sys.connect_movable(a, b, w);
            else if (ma)
                sys.connect_fixed(a, cb, w);
            else if (mb)
                sys.connect_fixed(b, ca, w);
        };
        add_edge(lo, hi, clo, chi);
        for (std::size_t k = 0; k < p; ++k) {
            const std::uint32_t pin = net.pins[k];
            if (pin == lo || pin == hi) continue;
            const double c = coord_of(pin);
            add_edge(pin, lo, c, clo);
            add_edge(pin, hi, c, chi);
        }
    }
    if (anchor_targets != nullptr)
        for (std::size_t i = 0; i < n; ++i)
            sys.connect_fixed(i, (*anchor_targets)[i], anchor_w);
}

/// io slot -> contracted nets touching it at this level. Pins are sorted,
/// so a net's io pins are a suffix.
void build_io_index(const CoarseLevel& lv,
                    std::vector<std::vector<std::uint32_t>>& nets_of_io) {
    nets_of_io.assign(lv.num_io, {});
    for (std::size_t ni = 0; ni < lv.nets.size(); ++ni) {
        const std::vector<std::uint32_t>& pins = lv.nets[ni].pins;
        for (std::size_t k = pins.size(); k-- > 0;) {
            if (pins[k] < lv.num_nodes) break;
            nets_of_io[pins[k] - lv.num_nodes].push_back(static_cast<std::uint32_t>(ni));
        }
    }
}

/// Reusable buffers of refine_level_pads.
struct PadScratch {
    PadFrame frame;
    std::vector<std::uint32_t> out;
};

/// Greedy deterministic pad refinement at one level: each io slot, in slot
/// order, takes the free pad nearest (Manhattan) to the weight-weighted
/// centroid of the level nodes on its nets; ties keep the lowest pad index.
/// Re-seating the pads every pass matters on I/O-heavy designs, where the
/// pad assignment dominates the cost and the pads are the solver's fixed
/// anchors, so the two must co-converge. The PadFrame answers each
/// nearest-free query in O(log n_pads), which is what lets the coarsest
/// level run its full pass schedule without an O(n_io * n_pads) scan per
/// pass swamping the cheap coarse solves.
void refine_level_pads(const CoarseLevel& lv,
                       const std::vector<std::vector<std::uint32_t>>& nets_of_io,
                       const std::vector<double>& cx, const std::vector<double>& cy,
                       std::vector<std::uint32_t>& pad_of_io, PadScratch& scratch) {
    const std::size_t n_io = lv.num_io;
    PadFrame& frame = scratch.frame;
    frame.reset();
    scratch.out.assign(n_io, 0);
    for (std::size_t s = 0; s < n_io; ++s) {
        double sx = 0;
        double sy = 0;
        std::uint64_t cnt = 0;
        for (const std::uint32_t ni : nets_of_io[s])
            for (const std::uint32_t pin : lv.nets[ni].pins) {
                if (pin >= lv.num_nodes) break;  // sorted: io pins are a suffix
                const std::uint32_t w = lv.node_weight[pin];
                sx += cx[pin] * w;
                sy += cy[pin] * w;
                cnt += w;
            }
        std::uint32_t best = 0;
        bool found = false;
        if (cnt == 0) {
            // Disconnected I/O: keep its seeded pad if free, else lowest free.
            if (frame.is_free(pad_of_io[s])) {
                best = pad_of_io[s];
                found = true;
            } else {
                found = frame.lowest_free(best);
            }
        } else {
            found = frame.nearest_free(sx / static_cast<double>(cnt),
                                       sy / static_cast<double>(cnt), best);
        }
        base::check(found, "place_multilevel: ran out of free pads");
        frame.take(best);
        scratch.out[s] = best;
    }
    pad_of_io = scratch.out;
}

/// HPWL over the fractional (pre-legalization) coordinates — the
/// `pre_legal_cost` telemetry. The cost engine needs integer coordinates,
/// so this one sums doubles.
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

/// Fill `res.engine` and the pad table from the legal placement in `res`.
/// Every coordinate is integral (PLBs at x+1, pads on the frame), so the
/// engine works in integers; the pad points are converted once, here. The
/// 2^29 bound keeps every net's HPWL (two spans) inside int32.
void build_cost_engine(const PlaceModel& model, AnalyticalResult& res) {
    auto integral = [](double v) {
        base::check(v == std::trunc(v) && v >= 0 && v <= double{1 << 29},
                    "place: placement coordinate is not an integer in [0, 2^29]");
        return static_cast<std::int32_t>(v);
    };
    for (const PlacePt& p : model.pad_pts) {
        res.pad_x.push_back(integral(p.x));
        res.pad_y.push_back(integral(p.y));
    }
    for (const PlaceEntity& e : model.entities) {
        if (e.kind == PlaceEntity::Kind::Cluster) {
            const core::PlbCoord c = res.cluster_loc[e.index];
            res.engine.add_entity(integral(c.x + 1.0), integral(c.y + 1.0));
        } else {
            const std::uint32_t pad = res.pad_of_io[e.io_slot];
            res.engine.add_entity(res.pad_x[pad], res.pad_y[pad]);
        }
    }
    for (const PlaceNet& n : model.nets) res.engine.add_net(n.entities);
    res.engine.finalize();
}

}  // namespace

AnalyticalResult place_multilevel_global(const PlaceModel& model, const PlaceOptions& opts,
                                         std::uint64_t seed) {
    const std::uint32_t W = model.arch->width;
    const std::uint32_t H = model.arch->height;
    AnalyticalResult res;

    // Seeded pad shuffle: a random initial I/O assignment.
    res.pad_of_io.resize(model.io_entity_ids.size());
    {
        base::Rng rng(seed);
        std::vector<std::uint32_t> pads(model.geom.num_pads());
        for (std::uint32_t i = 0; i < pads.size(); ++i) pads[i] = i;
        rng.shuffle(pads);
        for (std::size_t i = 0; i < res.pad_of_io.size(); ++i) res.pad_of_io[i] = pads[i];
    }

    const std::vector<CoarseLevel> levels = build_hierarchy(
        model, opts.coarsen_ratio, static_cast<std::size_t>(std::max(1, opts.min_coarse_nodes)),
        static_cast<std::size_t>(std::max(0, opts.max_levels)));
    const std::size_t n_levels = levels.size();
    res.stats.levels.reserve(n_levels);

    std::vector<double> cx;
    std::vector<double> cy;
    std::vector<double> fine_x;
    std::vector<double> fine_y;
    std::vector<double> tgt_x;
    std::vector<double> tgt_y;
    QuadSystem sys;
    PcgScratch pcg;
    SpreadScratch spread;
    PadScratch pads;
    if (!model.io_entity_ids.empty()) pads.frame.build(model.pad_pts, W, H);
    std::vector<std::vector<std::uint32_t>> nets_of_io;
    bool have_targets = false;
    // The anchor pass counter carries across levels: the anchor weight
    // keeps growing down the hierarchy exactly as it grows across one
    // level's passes, so the finest level arrives legalization-ready.
    int anchor_pass = 0;
    double anchor_w = 0.0;

    for (std::size_t li = n_levels; li-- > 0;) {
        const CoarseLevel& lv = levels[li];
        base::WallTimer timer;
        LevelStats ls;
        ls.nodes = lv.num_nodes;
        ls.nets = lv.nets.size();

        if (li == n_levels - 1) {
            // Coarsest: fabric center plus deterministic per-index jitter.
            cx.resize(lv.num_nodes);
            cy.resize(lv.num_nodes);
            for (std::size_t i = 0; i < lv.num_nodes; ++i) {
                cx[i] = (W + 1) * 0.5 + jitter(i, 16);
                cy[i] = (H + 1) * 0.5 + jitter(i, 40);
            }
        } else {
            // Interpolate: every node starts at its coarse parent, nudged
            // apart by jitter; anchor targets interpolate the same way so
            // the first anchored solve pulls toward the parent's region.
            const std::vector<std::uint32_t>& down = levels[li + 1].map_down;
            fine_x.resize(lv.num_nodes);
            fine_y.resize(lv.num_nodes);
            for (std::size_t v = 0; v < lv.num_nodes; ++v) {
                fine_x[v] = std::clamp(cx[down[v]] + jitter(v, 16), 1.0, static_cast<double>(W));
                fine_y[v] = std::clamp(cy[down[v]] + jitter(v, 40), 1.0, static_cast<double>(H));
            }
            if (have_targets) {
                std::vector<double>& px = cx;  // parent targets reuse the old
                std::vector<double>& py = cy;  // position buffers via swap
                px.swap(tgt_x);
                py.swap(tgt_y);
                tgt_x.resize(lv.num_nodes);
                tgt_y.resize(lv.num_nodes);
                for (std::size_t v = 0; v < lv.num_nodes; ++v) {
                    tgt_x[v] = px[down[v]];
                    tgt_y[v] = py[down[v]];
                }
            }
            cx.swap(fine_x);
            cy.swap(fine_y);
        }
        tgt_x.resize(lv.num_nodes);
        tgt_y.resize(lv.num_nodes);
        if (lv.num_io != 0) build_io_index(lv, nets_of_io);

        const int max_iters =
            li == n_levels - 1
                ? std::max(1, opts.solver_max_iters)
                : std::max(10, opts.solver_max_iters / kLevelIterShrink);
        auto solve_axes = [&] {
            for (int axis = 0; axis < 2; ++axis) {
                std::vector<double>& x = axis == 0 ? cx : cy;
                build_level_axis(lv, model, axis, cx, cy, res.pad_of_io,
                                 have_targets ? (axis == 0 ? &tgt_x : &tgt_y) : nullptr,
                                 anchor_w, sys);
                sys.fix_degenerate(x);
                sys.finalize();
                ls.solver_iterations +=
                    solve_pcg(sys, x, max_iters, opts.solver_tolerance, pcg);
                const double hi = axis == 0 ? static_cast<double>(W) : static_cast<double>(H);
                for (double& v : x) v = std::clamp(v, 1.0, hi);
            }
            ++ls.solver_passes;
        };

        const int passes = li == n_levels - 1
                               ? std::max(1, opts.solver_passes)
                               : (li == 0 ? std::max(1, opts.solver_passes / kFinestPassShrink)
                                          : std::max(1, opts.solver_passes / kLevelPassShrink));
        for (int pass = 0; pass < passes; ++pass) {
            solve_axes();
            if (lv.num_io != 0)
                refine_level_pads(lv, nets_of_io, cx, cy, res.pad_of_io, pads);
            if (lv.num_nodes != 0) {
                spread_targets(W, H, lv.num_nodes, cx, cy, lv.node_weight.data(), tgt_x,
                               tgt_y, spread);
                have_targets = true;
                ++anchor_pass;
                anchor_w = opts.anchor_weight * static_cast<double>(anchor_pass);
                ++ls.spread_passes;
            }
        }

        if (li == 0) {
            // Closing sequence at the finest level: re-seat the pads, one
            // closing solve against them and the last anchors, then
            // legalize from a final round of bisection targets rather than
            // the raw solve. The closing solve re-clumps (its anchors are
            // mild), and handing the displacement-greedy Tetris pass a
            // dense clump lets it scatter nets arbitrarily; the targets are
            // density-feasible while staying as close to the solved
            // positions as capacity allows, so Tetris degenerates to a
            // near-identity snap.
            if (lv.num_io != 0)
                refine_level_pads(lv, nets_of_io, cx, cy, res.pad_of_io, pads);
            solve_axes();
            res.stats.pre_legal_cost = fractional_cost(model, cx, cy, res.pad_of_io);
            if (lv.num_nodes != 0) {
                spread_targets(W, H, lv.num_nodes, cx, cy, lv.node_weight.data(), tgt_x,
                               tgt_y, spread);
                ++ls.spread_passes;
            }
        }

        ls.wall_ms = timer.elapsed_ms();
        res.stats.solver_iterations += ls.solver_iterations;
        res.stats.solver_passes += ls.solver_passes;
        res.stats.spread_passes += ls.spread_passes;
        res.stats.levels.push_back(ls);
    }

    res.cluster_loc = legalize_clusters(tgt_x, tgt_y, W, H, &res.stats.legalize);
    build_cost_engine(model, res);
    res.stats.legalized_cost = res.engine.total_cost();
    return res;
}

}  // namespace afpga::cad
