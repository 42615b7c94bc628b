#include "cad/route_search.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/timer.hpp"

namespace afpga::cad::detail {

using core::RRGraph;
using core::RRKind;
using core::RRNodeWord;

NetRouteState route_one_net(const RRGraph& rr, const RouteRequest& rq,
                            const RouterOptions& opts, double pres_fac,
                            const std::vector<double>& hist,
                            std::vector<std::uint16_t>& occ, SearchScratch& scratch,
                            const RouteBBox* bbox) {
    base::WallTimer net_timer;
    RouteKernelStats& ks = scratch.stats;
    ++ks.nets_routed;

    auto pres_cost = [&](std::uint32_t n) {
        const int over = static_cast<int>(occ[n]) + 1 - static_cast<int>(rr.node_capacity(n));
        return over > 0 ? 1.0 + pres_fac * static_cast<double>(over) : 1.0;
    };
    const double wire_unit =
        static_cast<double>(std::max<std::int64_t>(rr.arch().wire_delay_ps, 1));

    std::vector<double>& best = scratch.best;
    std::vector<std::uint32_t>& prev_edge = scratch.prev_edge;
    std::vector<std::uint32_t>& visit_mark = scratch.visit_mark;
    std::vector<std::uint32_t>& target_mark = scratch.target_mark;
    std::vector<std::uint32_t>& tree_mark = scratch.tree_mark;
    PooledHeap& heap = scratch.heap;

    NetRouteState st;
    st.tree.sinks.assign(rq.sinks.size(), {});

    // Tree nodes grow as sinks are reached; membership is O(1) via the
    // per-net tree epoch (tree_mark[n] == tree_epoch <=> n is in tree_nodes).
    scratch.begin_net();
    const std::uint32_t tree_epoch = scratch.tree_epoch;
    std::vector<std::uint32_t>& tree_nodes = st.nodes;
    std::vector<std::uint32_t> tree_edges;

    // Candidate sources, built into the pooled per-net buffer.
    std::vector<std::uint32_t>& sources = scratch.sources;
    {
        const std::size_t cap = sources.capacity();
        sources.clear();
        if (rq.src_is_pad) {
            sources.push_back(rr.pad_opin(rq.src_pad));
        } else if (!rq.allowed_src_pins.empty()) {
            for (std::uint32_t p : rq.allowed_src_pins)
                sources.push_back(rr.plb_opin(rq.src_plb, p));
        } else {
            for (std::uint32_t p = 0; p < rr.arch().plb_outputs; ++p)
                sources.push_back(rr.plb_opin(rq.src_plb, p));
        }
        if (sources.capacity() != cap) ++ks.allocations;
    }

    // Sinks ordered as given (caller orders by distance if desired).
    for (std::size_t si = 0; si < rq.sinks.size(); ++si) {
        const RouteRequest::Sink& sk = rq.sinks[si];

        // One fresh epoch covers both the visit labels and the target set:
        // stamping target_mark replaces the seed kernel's sorted-vector
        // binary_search with an O(1) load in the pop loop.
        scratch.begin_sink();
        const std::uint32_t mark = scratch.mark;

        std::vector<std::uint32_t>& targets = scratch.targets;
        {
            const std::size_t cap = targets.capacity();
            targets.clear();
            if (sk.is_pad) {
                targets.push_back(rr.pad_ipin(sk.pad));
            } else {
                for (std::uint32_t p = 0; p < rr.arch().plb_inputs; ++p)
                    targets.push_back(rr.plb_ipin(sk.plb, p));
            }
            if (targets.capacity() != cap) ++ks.allocations;
        }
        for (std::uint32_t t : targets) target_mark[t] = mark;

        // A PLB sink reads the graph's lookahead; a pad sink keeps the
        // Manhattan term to the pad's anchor PLB.
        const std::pair<double, double> pad_pos = rr.node_word(targets[0]).grid_pos();
        auto heuristic = [&](RRNodeWord nw) {
            if (!sk.is_pad) return opts.astar_fac * rr.lookahead(nw, sk.plb);
            const auto [x, y] = nw.grid_pos();
            return opts.astar_fac * wire_unit *
                   (std::abs(x - pad_pos.first) + std::abs(y - pad_pos.second));
        };
        // Input pins are never expanded, so one that is not this sink's
        // target is a dead end and never enters the wavefront.
        auto dead_end = [&](std::uint32_t n, RRNodeWord nw) {
            return nw.kind() == RRKind::Ipin && target_mark[n] != mark;
        };

        heap.clear();
        auto push = [&](std::uint32_t n, RRNodeWord nw, double backward,
                        std::uint32_t via_edge) {
            if (visit_mark[n] == mark && best[n] <= backward) return;
            visit_mark[n] = mark;
            best[n] = backward;
            prev_edge[n] = via_edge;
            if (heap.push({backward + heuristic(nw), backward, n})) ++ks.allocations;
            ++ks.heap_pushes;
            if (heap.size() > ks.wavefront_peak) ks.wavefront_peak = heap.size();
        };
        auto seed = [&](std::uint32_t n, double backward) {
            const RRNodeWord nw = rr.node_word(n);
            if (dead_end(n, nw) || (bbox != nullptr && !bbox->allows(nw))) return;
            push(n, nw, backward, UINT32_MAX);
        };
        if (tree_nodes.empty()) {
            for (std::uint32_t s : sources) seed(s, rr.node_base_cost(s) * pres_cost(s));
        } else {
            for (std::uint32_t n : tree_nodes) seed(n, 0.0);
        }

        std::uint32_t found = UINT32_MAX;
        while (!heap.empty()) {
            const HeapItem it = heap.pop();
            ++ks.heap_pops;
            if (visit_mark[it.node] == mark && it.backward > best[it.node]) continue;
            if (target_mark[it.node] == mark) {
                found = it.node;
                break;
            }
            // Every pushed input pin is a target, so this node is not one.
            ++ks.nodes_expanded;
            // Flat CSR adjacency: one contiguous scan per expansion. The
            // region test runs before the cost: pres_cost reads occ[], and a
            // node outside this net's region may belong to a bin another
            // worker is occupying right now — it must not even be read.
            for (const core::RRGraph::OutEdge oe : rr.out(it.node)) {
                ++ks.edges_scanned;
                const RRNodeWord nw = rr.node_word(oe.to);
                if (dead_end(oe.to, nw) || (bbox != nullptr && !bbox->allows(nw))) continue;
                const double c =
                    it.backward + rr.node_base_cost(oe.to) * pres_cost(oe.to) + hist[oe.to];
                push(oe.to, nw, c, oe.edge);
            }
        }
        if (found == UINT32_MAX) {
            // Unroutable under current costs (or outside the bbox); give up
            // this sink for this iteration.
            st.tree.sinks[si].ipin = UINT32_MAX;
            st.all_sinks_found = false;
            continue;
        }
        st.tree.sinks[si].ipin = found;
        // Walk back, adding new nodes/edges to the tree. Every node on the
        // walk was labelled by THIS sink's search (a node's prev_edge is only
        // set when its predecessor was expanded this epoch), and tree-seeded
        // nodes keep prev_edge == UINT32_MAX (their backward cost 0.0 can't
        // be improved), so the walk terminates at the tree/source frontier.
        std::uint32_t cur = found;
        while (prev_edge[cur] != UINT32_MAX) {
            const std::uint32_t e = prev_edge[cur];
            tree_edges.push_back(e);
            const std::uint32_t from = rr.edge_source(e);
            if (tree_mark[cur] != tree_epoch) {
                tree_mark[cur] = tree_epoch;
                tree_nodes.push_back(cur);
            }
            cur = from;
        }
        if (tree_mark[cur] != tree_epoch) {
            tree_mark[cur] = tree_epoch;
            tree_nodes.push_back(cur);  // the root (source opin or tree node)
        }
        if (st.tree.root_opin == UINT32_MAX && rr.node_word(cur).kind() == RRKind::Opin)
            st.tree.root_opin = cur;
    }

    for (std::uint32_t n : tree_nodes) ++occ[n];
    st.tree.edges = std::move(tree_edges);
    ks.search_ms += net_timer.elapsed_ms();
    return st;
}

void finalize_routing(const RRGraph& rr, const std::vector<RouteRequest>& reqs,
                      const std::vector<std::vector<std::uint32_t>>& net_nodes,
                      RoutingResult& result) {
    // --- wirelength: channel wires held across all nets ------------------------
    for (const auto& nodes : net_nodes)
        for (std::uint32_t n : nodes) {
            const RRKind k = rr.node_word(n).kind();
            if (k == RRKind::ChanX || k == RRKind::ChanY) ++result.wirelength;
        }

    // --- final delays: accumulate node delays from the root over the tree ----
    // Flat replacement of the per-tree unordered_map adjacency: tree nodes
    // are compacted to dense local ids through an epoch-stamped N-sized
    // scratch, the kids lists become one CSR (filled in edge order, so each
    // node's kids keep the map version's insertion order), and the traversal
    // is the same LIFO stack with the same visited-before-write rule — the
    // arrival times match the map version even on degenerate edge lists.
    std::vector<std::uint32_t> stamp(rr.num_nodes(), 0);
    std::vector<std::uint32_t> local_id(rr.num_nodes(), 0);
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> verts;       // local id -> rr node
    std::vector<std::uint32_t> kid_first;   // CSR offsets over local ids
    std::vector<std::uint32_t> kid_at;      // fill cursor
    std::vector<std::uint32_t> kids;        // CSR payload: local kid ids
    std::vector<std::int64_t> arrive;       // local id -> root..node delay sum
    std::vector<std::uint8_t> seen;
    std::vector<std::uint32_t> stack;

    for (std::size_t ri = 0; ri < reqs.size(); ++ri) {
        RouteTree& tree = result.trees[ri];
        if (tree.root_opin == UINT32_MAX && !tree.edges.empty())
            tree.root_opin = rr.edge_source(tree.edges.back());
        if (tree.root_opin == UINT32_MAX) continue;  // empty tree: delays stay 0

        if (++epoch == 0) {
            std::fill(stamp.begin(), stamp.end(), 0u);
            epoch = 1;
        }
        verts.clear();
        auto lid = [&](std::uint32_t n) {
            if (stamp[n] != epoch) {
                stamp[n] = epoch;
                local_id[n] = static_cast<std::uint32_t>(verts.size());
                verts.push_back(n);
            }
            return local_id[n];
        };
        const std::uint32_t root = lid(tree.root_opin);
        for (std::uint32_t e : tree.edges) {
            lid(rr.edge_source(e));
            lid(rr.edge_target(e));
        }

        kid_first.assign(verts.size() + 1, 0);
        for (std::uint32_t e : tree.edges) ++kid_first[local_id[rr.edge_source(e)] + 1];
        for (std::size_t v = 1; v < kid_first.size(); ++v) kid_first[v] += kid_first[v - 1];
        kid_at.assign(kid_first.begin(), kid_first.end() - 1);
        kids.resize(tree.edges.size());
        for (std::uint32_t e : tree.edges)
            kids[kid_at[local_id[rr.edge_source(e)]]++] = local_id[rr.edge_target(e)];

        arrive.assign(verts.size(), 0);
        seen.assign(verts.size(), 0);
        stack.clear();
        stack.push_back(root);
        arrive[root] = rr.node(tree.root_opin).delay_ps;
        seen[root] = 1;
        while (!stack.empty()) {
            const std::uint32_t v = stack.back();
            stack.pop_back();
            for (std::uint32_t i = kid_first[v]; i < kid_first[v + 1]; ++i) {
                const std::uint32_t k = kids[i];
                if (seen[k]) continue;
                arrive[k] = arrive[v] + rr.node(verts[k]).delay_ps;
                seen[k] = 1;
                stack.push_back(k);
            }
        }
        for (auto& s : tree.sinks)
            if (s.ipin != UINT32_MAX && stamp[s.ipin] == epoch && seen[local_id[s.ipin]])
                s.delay_ps = arrive[local_id[s.ipin]];
    }
}

void report_overuse(const RRGraph& rr, const std::vector<RouteRequest>& reqs,
                    const std::vector<std::vector<std::uint32_t>>& net_nodes,
                    const std::vector<std::uint16_t>& occ, RoutingResult& result) {
    // One pass over net_nodes instead of a per-overused-node scan of every
    // net: overused nodes get dense slots, then each net appends itself to
    // the slots it occupies. Nets are visited in ascending index and a tree
    // never holds a node twice, so each slot's user list matches the
    // quadratic version's " netA netB..." string exactly.
    std::vector<std::uint32_t> slot(rr.num_nodes(), UINT32_MAX);
    std::vector<std::uint32_t> over_nodes;
    for (std::uint32_t n = 0; n < rr.num_nodes(); ++n)
        if (occ[n] > rr.node_capacity(n)) {
            slot[n] = static_cast<std::uint32_t>(over_nodes.size());
            over_nodes.push_back(n);
        }
    std::vector<std::string> users(over_nodes.size());
    for (std::size_t ri = 0; ri < reqs.size(); ++ri)
        for (std::uint32_t n : net_nodes[ri])
            if (slot[n] != UINT32_MAX) users[slot[n]] += " net" + std::to_string(ri);

    for (std::size_t i = 0; i < over_nodes.size(); ++i) {
        const std::uint32_t n = over_nodes[i];
        const core::RRNode& nd = rr.node(n);
        result.overuse_report.push_back(
            to_string(nd.kind) + "(" + std::to_string(nd.x) + "," + std::to_string(nd.y) +
            ")#" + std::to_string(nd.track) + " occ=" + std::to_string(occ[n]) + users[i]);
    }
    std::size_t unrouted = 0;
    for (std::size_t ri = 0; ri < reqs.size(); ++ri)
        for (const auto& s : result.trees[ri].sinks)
            if (s.ipin == UINT32_MAX) ++unrouted;
    if (unrouted)
        result.overuse_report.push_back(std::to_string(unrouted) + " unrouted sinks");
}

}  // namespace afpga::cad::detail
