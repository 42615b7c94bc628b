/// \file
/// Incremental half-perimeter wirelength (HPWL) engine for the placer.
///
/// The placer's one move evaluator. The polish anneal and the final
/// descent (cad/place.cpp) both propose moves of one or two entities (a
/// cluster relocation, a cluster swap, a pad reassignment or pad swap).
/// Instead of rescanning every entity of every affected net through a
/// position lookup, the engine caches every entity's position and every
/// net's cost. The V-cycle (cad/place_multilevel.hpp) builds it at the
/// legal placement.
///
/// Every placement coordinate is an integer: a PLB sits at (x+1, y+1) and
/// a pad on the 0 / W+1 / H+1 frame at offset+1. So every net's HPWL is an
/// integer, every cost sum is exact in any order, and the engine keeps
/// positions as int32 and costs and deltas in int64. A recomputation
/// summing the same integers in doubles, such as cad::placement_wirelength,
/// reaches the same value bit for bit (all sums stay far below 2^53), in
/// any order.
///
/// Parallel nets (one entity set: dual rails, bus bits between the same
/// two clusters) are merged by finalize() into one net with an integer
/// weight, whose cost is weight * HPWL. That cuts the incidences a move
/// walks, and every delta stays the same integer the unmerged nets sum
/// to, so no accept decision changes.
///
/// Two net shapes, after VPR's placer:
/// - Nets of at most kSmallNet pins: every (entity, net) incidence carries
///   the other pins' entity ids, padded to a fixed three by repetition, so
///   the post-move HPWL is a branchless min/max over four points.
/// - Larger nets: a cached bounding box with per-edge occupancy counts (how
///   many pins sit on each edge). A move updates each affected box in O(1);
///   only when the last pin on an edge retreats inward is the net rescanned.
///   Updated and rescanned boxes are identical.
///
/// eval() applies a proposal tentatively: it writes the proposed positions
/// into the position arrays, evaluates, and restores the committed
/// positions before it returns. commit() then applies the stashed result
/// of the last eval(); a proposal that is not committed leaves no trace.
///
/// Threading: each place() call owns its engine; an engine is never shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace afpga::cad {

/// One tentative entity relocation inside a move proposal.
struct EntityMove {
    std::size_t entity;  ///< entity id (from add_entity)
    std::int32_t x;      ///< proposed x
    std::int32_t y;      ///< proposed y
};

/// The incremental HPWL cost engine (see the file comment for the model).
class PlaceCostEngine {
public:
    /// Nets with at most this many pins take the fixed-shape path.
    static constexpr std::size_t kSmallNet = 4;
    /// Most pins one net may have (the per-edge counts are 16-bit).
    static constexpr std::size_t kMaxNetPins = 65535;

    // --- construction -------------------------------------------------------
    /// Register an entity at its initial position; ids are dense from 0.
    std::size_t add_entity(std::int32_t x, std::int32_t y);
    /// Register a net over distinct entity ids, at most kMaxNetPins of them
    /// (>= 2 to contribute cost). Throws base::Error on a bad or repeated id
    /// or an oversized net.
    void add_net(std::vector<std::size_t> entities);
    /// Merge parallel nets, then build the incidence records and the
    /// initial costs. Call once, after all entities and nets are in;
    /// positions may still change via moves.
    void finalize();

    // --- queries ------------------------------------------------------------
    /// Sum of the cached per-net costs (O(nets); equal to a from-scratch
    /// recomputation because cached costs are always exact).
    [[nodiscard]] double total_cost() const;
    /// Validation-only: recompute every net from positions and sum.
    [[nodiscard]] double recompute_from_scratch() const;
    /// Current committed x of an entity.
    [[nodiscard]] std::int32_t entity_x(std::size_t eid) const { return xs_[eid]; }
    /// Current committed y of an entity.
    [[nodiscard]] std::int32_t entity_y(std::size_t eid) const { return ys_[eid]; }

    // --- move protocol ------------------------------------------------------
    /// Exact cost delta of applying `moves` (typically 1-2 entries, e.g. a
    /// stack array; one entry per entity). Committed state is unchanged on
    /// return; the tentative costs are stashed for a follow-up commit().
    double eval(std::span<const EntityMove> moves);
    /// Apply the last evaluated proposal (positions + cached costs).
    void commit();

private:
    struct NetBox {
        std::int32_t xmin, xmax, ymin, ymax;
        std::uint16_t n_xmin, n_xmax, n_ymin, n_ymax;  ///< pins on each edge
    };
    /// One incidence of an entity on a small net: the net, its weight and
    /// the other pins, padded by repeating an id.
    struct SmallPins {
        std::uint32_t net;
        std::uint32_t weight;
        std::uint32_t other[kSmallNet - 1];
    };
    /// A move with the committed position it overwrites during eval.
    struct PendingMove {
        std::uint32_t entity;
        std::int32_t x, y;    ///< proposed
        std::int32_t ox, oy;  ///< committed
    };
    struct PendingCost {
        std::uint32_t net;
        std::int64_t cost;
    };
    struct PendingBox {
        std::uint32_t net;
        bool rescan;  ///< the O(1) update bailed; rebuild the box by scan
        NetBox box;
    };

    /// Box of a net from the current position arrays.
    [[nodiscard]] NetBox scan_net(std::uint32_t ni) const;
    [[nodiscard]] static std::int32_t hpwl(const NetBox& b) {
        return (b.xmax - b.xmin) + (b.ymax - b.ymin);
    }
    /// Cost of net `ni` at HPWL `h`: the weight times h.
    [[nodiscard]] std::int64_t weighted(std::uint32_t ni, std::int32_t h) const {
        return std::int64_t{weight_[ni]} * h;
    }

    std::vector<std::int32_t> xs_;
    std::vector<std::int32_t> ys_;
    /// Construction-time staging only; finalize() flattens it into the CSR
    /// arrays below and clears it.
    std::vector<std::vector<std::size_t>> nets_;
    /// Staging: each net's ids sorted, the key that finds parallel nets.
    std::vector<std::vector<std::size_t>> sorted_nets_;
    std::vector<std::int64_t> cost_;     ///< per net: weight * HPWL
    std::vector<std::uint32_t> weight_;  ///< per net: parallel nets merged
    std::vector<NetBox> boxes_;          ///< per net; read for large nets only

    // Flat CSR views built by finalize().
    std::vector<std::uint32_t> net_first_;    // net -> first index into net_ents_
    std::vector<std::uint32_t> net_ents_;     // entity ids flattened by net
    std::vector<std::uint32_t> small_first_;  // entity -> first index into small_
    std::vector<SmallPins> small_;            // small-net incidences by entity
    std::vector<std::uint32_t> large_first_;  // entity -> first index into large_
    std::vector<std::uint32_t> large_;        // large-net ids by entity

    // Pending proposal (filled by eval, consumed by commit).
    std::vector<PendingMove> moves_;
    std::vector<PendingCost> small_pending_;
    std::vector<PendingBox> large_pending_;

    // O(1) large-net dedup across one eval call: net_mark_[ni] == mark_
    // means net ni already owns large_pending_[net_slot_[ni]]. Small nets
    // dedup by their pin records instead.
    std::vector<std::uint32_t> net_mark_;
    std::vector<std::uint32_t> net_slot_;
    std::uint32_t mark_ = 0;
};

}  // namespace afpga::cad
